(* Flat layout: net [j]'s pins are [pins.(pin_start.(j)) ..
   pins.(pin_start.(j + 1) - 1)], ascending, and element [e]'s nets are
   [incident.(inc_start.(e)) .. incident.(inc_start.(e + 1) - 1)],
   ascending. *)
type view = {
  pin_start : int array; (* length n_nets + 1 *)
  pins : int array;
  inc_start : int array; (* length n_elements + 1 *)
  incident : int array;
}

(* [cut_table] is the one memo: [Bytes.empty] until the first
   [cut_table] call builds it. *)
type t = { view : view; cut_table : Bytes.t Atomic.t }

(* Sorts [a.(lo) .. a.(hi - 1)] ascending in place, allocating nothing:
   insertion sort for the short nets real netlists have, heapsort above
   [short_net] pins so that no net sorts in quadratic time. *)
let short_net = 16

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let k = ref (i - 1) in
    while !k >= lo && a.(!k) > x do
      a.(!k + 1) <- a.(!k);
      decr k
    done;
    a.(!k + 1) <- x
  done

(* Max-heap on [a.(lo) ..], node [r] at [a.(lo + r)], [len] nodes. *)
let rec sift_down (a : int array) lo len r =
  let c = (2 * r) + 1 in
  if c < len then begin
    let c = if c + 1 < len && a.(lo + c + 1) > a.(lo + c) then c + 1 else c in
    let x = a.(lo + r) in
    if a.(lo + c) > x then begin
      a.(lo + r) <- a.(lo + c);
      a.(lo + c) <- x;
      sift_down a lo len c
    end
  end

let sort_slice a lo hi =
  let len = hi - lo in
  if len <= short_net then insertion_sort a lo hi
  else begin
    for r = (len / 2) - 1 downto 0 do
      sift_down a lo len r
    done;
    for last = len - 1 downto 1 do
      let x = a.(lo) in
      a.(lo) <- a.(lo + last);
      a.(lo + last) <- x;
      sift_down a lo last 0
    done
  end

(* The one builder.  Net [j]'s pins sit at [pins.(pin_start.(j)) ..
   pins.(pin_start.(j + 1) - 1)] in any order, and both arrays become
   the netlist's own.  Nets are checked in order: a short net first,
   then each pin's range in input order; then the net is sorted and
   checked for repeats in place. *)
let build ~n_elements ~pin_start ~pins =
  if n_elements < 0 then invalid_arg "Netlist.create: negative element count";
  let m = Array.length pin_start - 1 in
  for j = 0 to m - 1 do
    let lo = pin_start.(j) and hi = pin_start.(j + 1) in
    if hi - lo < 2 then
      invalid_arg (Printf.sprintf "Netlist.create: net %d has fewer than 2 pins" j);
    for k = lo to hi - 1 do
      let e = pins.(k) in
      if e < 0 || e >= n_elements then
        invalid_arg (Printf.sprintf "Netlist.create: net %d pin %d out of range" j e)
    done;
    sort_slice pins lo hi;
    for k = lo + 1 to hi - 1 do
      if pins.(k) = pins.(k - 1) then
        invalid_arg (Printf.sprintf "Netlist.create: net %d repeats element %d" j pins.(k))
    done
  done;
  let inc_start = Array.make (n_elements + 1) 0 in
  for k = 0 to Array.length pins - 1 do
    let e = pins.(k) in
    inc_start.(e + 1) <- inc_start.(e + 1) + 1
  done;
  for e = 1 to n_elements do
    inc_start.(e) <- inc_start.(e) + inc_start.(e - 1)
  done;
  let incident = Array.make inc_start.(n_elements) 0 in
  let fill = Array.sub inc_start 0 n_elements in
  for j = 0 to m - 1 do
    for k = pin_start.(j) to pin_start.(j + 1) - 1 do
      let e = pins.(k) in
      incident.(fill.(e)) <- j;
      fill.(e) <- fill.(e) + 1
    done
  done;
  { view = { pin_start; pins; inc_start; incident }; cut_table = Atomic.make Bytes.empty }

let create ~n_elements ~pins:nets =
  let m = Array.length nets in
  let pin_start = Array.make (m + 1) 0 in
  for j = 0 to m - 1 do
    pin_start.(j + 1) <- pin_start.(j) + Array.length nets.(j)
  done;
  let pins = Array.make pin_start.(m) 0 in
  for j = 0 to m - 1 do
    let net = nets.(j) and lo = pin_start.(j) in
    for k = 0 to Array.length net - 1 do
      pins.(lo + k) <- net.(k)
    done
  done;
  build ~n_elements ~pin_start ~pins

let view t = t.view
let n_elements t = Array.length t.view.inc_start - 1
let n_nets t = Array.length t.view.pin_start - 1
let net_size t j = t.view.pin_start.(j + 1) - t.view.pin_start.(j)
let pins t j = Array.sub t.view.pins t.view.pin_start.(j) (net_size t j)

let iter_pins t j f =
  for k = t.view.pin_start.(j) to t.view.pin_start.(j + 1) - 1 do
    f t.view.pins.(k)
  done

let degree t e = t.view.inc_start.(e + 1) - t.view.inc_start.(e)
let incident t e = Array.sub t.view.incident t.view.inc_start.(e) (degree t e)

let iter_incident t e f =
  for k = t.view.inc_start.(e) to t.view.inc_start.(e + 1) - 1 do
    f t.view.incident.(k)
  done

(* Every net has at least two pins, so [2 m] pins means exactly two
   each. *)
let is_graph t = Array.length t.view.pins = 2 * n_nets t

let fits_cut_table t = n_elements t <= 20 && n_nets t <= 0xffff

(* inside(S), the nets with every pin in S, is a subset sum: count each
   net at its own pin mask, then fold every mask into its supersets one
   element at a time, in place.  A net crosses S iff it lies neither
   inside S nor inside the complement, and since
   cut(S) = cut(complement S) only the sets without element n-1 are
   kept.  Every count is at most m < 2^16, so each fits one uint16. *)
let build_cut_table t =
  let n = n_elements t and m = n_nets t and v = t.view in
  let full = (1 lsl n) - 1 in
  let inside = Bytes.make (2 * (full + 1)) '\000' in
  let get s = Bytes.get_uint16_le inside (2 * s) in
  for j = 0 to m - 1 do
    let s = ref 0 in
    for k = v.pin_start.(j) to v.pin_start.(j + 1) - 1 do
      s := !s lor (1 lsl v.pins.(k))
    done;
    Bytes.set_uint16_le inside (2 * !s) (get !s + 1)
  done;
  for e = 0 to n - 1 do
    let bit = 1 lsl e in
    (* Each block of [2 bit] masks: the upper half, with e, gains the
       lower half, without it. *)
    for block = 0 to full lsr (e + 1) do
      for s = (block lsl (e + 1)) + bit to (block lsl (e + 1)) + (2 * bit) - 1 do
        Bytes.set_uint16_le inside (2 * s) (get s + get (s - bit))
      done
    done
  done;
  let half = max 1 ((full + 1) / 2) in
  let table = Bytes.create (2 * half) in
  for s = 0 to half - 1 do
    Bytes.set_uint16_le table (2 * s) (m - get s - get (full lxor s))
  done;
  table

(* Two domains that race may both build the table; the first to publish
   wins and the other adopts it. *)
let cut_table t =
  let b = Atomic.get t.cut_table in
  if Bytes.length b > 0 then b
  else begin
    if not (fits_cut_table t) then
      invalid_arg "Netlist.cut_table: netlist too large";
    let b = build_cut_table t in
    if Atomic.compare_and_set t.cut_table Bytes.empty b then b else Atomic.get t.cut_table
  end

let lightest_element t =
  if n_elements t = 0 then invalid_arg "Netlist.lightest_element: empty netlist";
  let best = ref 0 in
  for e = 1 to n_elements t - 1 do
    if degree t e < degree t !best then best := e
  done;
  !best

let equal a b =
  n_elements a = n_elements b
  && n_nets a = n_nets b
  && Array.for_all2 Int.equal a.view.pin_start b.view.pin_start
  && Array.for_all2 Int.equal a.view.pins b.view.pins

(* A generator draws net [j] straight into the flat pin array: [draw
   pins off] writes the net's pins from [off] and returns their count.
   The array has room for [max_pins] pins per net and is trimmed once,
   to the pins drawn. *)
let generate ~elements ~nets ~max_pins draw =
  let pins = Array.make (nets * max_pins) 0 in
  let pin_start = Array.make (nets + 1) 0 in
  for j = 0 to nets - 1 do
    pin_start.(j + 1) <- pin_start.(j) + draw pins pin_start.(j)
  done;
  let drawn = pin_start.(nets) in
  let pins = if drawn = Array.length pins then pins else Array.sub pins 0 drawn in
  build ~n_elements:elements ~pin_start ~pins

let random_gola rng ~elements ~nets =
  if elements < 2 then invalid_arg "Netlist.random_gola: need >= 2 elements";
  if nets < 0 then invalid_arg "Netlist.random_gola: negative net count";
  generate ~elements ~nets ~max_pins:2 (fun pins off ->
      let a, b = Rng.pair_distinct rng elements in
      pins.(off) <- a;
      pins.(off + 1) <- b;
      2)

let random_nola rng ~elements ~nets ~min_pins ~max_pins =
  if min_pins < 2 then invalid_arg "Netlist.random_nola: min_pins < 2";
  if max_pins < min_pins then invalid_arg "Netlist.random_nola: max_pins < min_pins";
  if max_pins > elements then invalid_arg "Netlist.random_nola: max_pins > elements";
  if nets < 0 then invalid_arg "Netlist.random_nola: negative net count";
  let sampler = Rng.sampler ~k:max_pins ~n:elements in
  generate ~elements ~nets ~max_pins (fun pins off ->
      let k = Rng.int_range rng min_pins max_pins in
      Rng.sample_into rng sampler ~k pins off;
      k)

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "netlist %d %d\n" (n_elements t) (n_nets t));
  for j = 0 to n_nets t - 1 do
    Buffer.add_string buf "net";
    iter_pins t j (fun e -> Buffer.add_string buf (" " ^ string_of_int e));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let meaningful =
    List.filter
      (fun line ->
        let line = String.trim line in
        line <> "" && line.[0] <> '#')
      lines
  in
  let words line =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  let parse_net line =
    match words line with
    | "net" :: pin_words -> (
        let pins = List.map int_of_string_opt pin_words in
        if List.for_all Option.is_some pins then
          Ok (Array.of_list (List.map Option.get pins))
        else Error (Printf.sprintf "malformed net line: %S" line))
    | _ -> Error (Printf.sprintf "malformed net line: %S" line)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_net line with
        | Ok net -> collect (net :: acc) rest
        | Error _ as e -> e)
  in
  match meaningful with
  | [] -> Error "empty netlist description"
  | header :: net_lines -> (
      match words header with
      | [ "netlist"; n; m ] -> (
          match (int_of_string_opt n, int_of_string_opt m) with
          | Some n_elements, Some n_nets ->
              if List.length net_lines <> n_nets then
                Error
                  (Printf.sprintf "expected %d net lines, found %d" n_nets
                     (List.length net_lines))
              else (
                match collect [] net_lines with
                | Error e -> Error e
                | Ok nets -> (
                    match create ~n_elements ~pins:(Array.of_list nets) with
                    | t -> Ok t
                    | exception Invalid_argument msg -> Error msg))
          | _ -> Error (Printf.sprintf "malformed header: %S" header))
      | _ -> Error (Printf.sprintf "malformed header: %S" header))
