type layout = {
  track_of : int array;
  track_count : int;
}

(* A net spans positions [lo, hi]; as a wire it occupies the boundaries
   lo .. hi-1.  Two nets conflict iff their boundary ranges intersect,
   i.e. lo1 < hi2 && lo2 < hi1. *)
let span arr j =
  let lo = ref max_int and hi = ref (-1) in
  Netlist.iter_pins (Arrangement.netlist arr) j (fun e ->
      let p = Arrangement.position_of arr e in
      if p < !lo then lo := p;
      if p > !hi then hi := p);
  (!lo, !hi)

let assign arr =
  let nl = Arrangement.netlist arr in
  let m = Netlist.n_nets nl in
  let spans = Array.init m (span arr) in
  let order = Array.init m (fun j -> j) in
  (* Left-edge: sweep nets by left endpoint; give each the lowest track
     whose previous occupant already ended. *)
  Array.sort (fun a b -> compare spans.(a) spans.(b)) order;
  let track_of = Array.make m 0 in
  let track_end = ref [||] in
  let track_count = ref 0 in
  Array.iter
    (fun j ->
      let lo, hi = spans.(j) in
      let rec find t =
        if t >= !track_count then begin
          (* open a new track *)
          if t >= Array.length !track_end then begin
            let bigger = Array.make (max 4 (2 * (t + 1))) 0 in
            Array.blit !track_end 0 bigger 0 (Array.length !track_end);
            track_end := bigger
          end;
          track_count := t + 1;
          t
        end
        else if !track_end.(t) <= lo then t
        else find (t + 1)
      in
      let t = find 0 in
      !track_end.(t) <- hi;
      track_of.(j) <- t)
    order;
  { track_of; track_count = !track_count }

let verify arr layout =
  let nl = Arrangement.netlist arr in
  let m = Netlist.n_nets nl in
  if Array.length layout.track_of <> m then Error "layout net count mismatch"
  else begin
    let spans = Array.init m (span arr) in
    let bad = ref None in
    for j = 0 to m - 1 do
      let t = layout.track_of.(j) in
      if t < 0 || t >= layout.track_count then
        bad := Some (Printf.sprintf "net %d assigned invalid track %d" j t)
    done;
    for a = 0 to m - 1 do
      for b = a + 1 to m - 1 do
        if layout.track_of.(a) = layout.track_of.(b) then begin
          let lo_a, hi_a = spans.(a) and lo_b, hi_b = spans.(b) in
          if lo_a < hi_b && lo_b < hi_a then
            bad :=
              Some
                (Printf.sprintf "nets %d and %d overlap on track %d" a b
                   layout.track_of.(a))
        end
      done
    done;
    match !bad with None -> Ok () | Some msg -> Error msg
  end

let max_width = 120

let render arr layout =
  let nl = Arrangement.netlist arr in
  let n = Arrangement.size arr in
  let m = Netlist.n_nets nl in
  (* Columns: element p sits at column 4p; wires run between element
     columns. *)
  let width = min max_width (max 1 ((4 * (n - 1)) + 1)) in
  let truncated = (4 * (n - 1)) + 1 > max_width in
  let buf = Buffer.create 1024 in
  let rows = Array.init layout.track_count (fun _ -> Bytes.make width ' ') in
  for j = 0 to m - 1 do
    let lo, hi = span arr j in
    let row = rows.(layout.track_of.(j)) in
    for c = 4 * lo to min (width - 1) (4 * hi) do
      Bytes.set row c '-'
    done;
    if 4 * lo < width then Bytes.set row (4 * lo) '+';
    if 4 * hi < width then Bytes.set row (4 * hi) '+'
  done;
  Array.iteri
    (fun t row ->
      Buffer.add_string buf (Printf.sprintf "track %2d  %s%s\n" t (Bytes.to_string row)
                               (if truncated then "..." else "")))
    rows;
  Buffer.add_string buf "          ";
  for p = 0 to n - 1 do
    let label = string_of_int (Arrangement.element_at arr p) in
    let col = 4 * p in
    if col < width then
      Buffer.add_string buf (Printf.sprintf "%-4s" label)
  done;
  Buffer.add_char buf '\n';
  Buffer.contents buf
