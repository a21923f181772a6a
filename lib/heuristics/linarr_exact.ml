(* Density is the largest cut over the boundaries of an order, and the
   cut after the first k elements depends only on the set S they form.
   So f(S), the least largest cut over the orders of S, obeys
   f(S) = max(cut S, min over v in S of f(S minus v)) with
   f(empty) = 0, and masks in increasing order reach every set after
   its subsets.  f(full) is the optimum; an optimal order ends with the
   element whose removal leaves the least f, and so on back to the
   empty set. *)
let optimum netlist =
  let n = Netlist.n_elements netlist in
  if n = 0 then invalid_arg "Linarr_exact.optimum: empty netlist";
  if not (Netlist.fits_cut_table netlist) then
    invalid_arg
      (Printf.sprintf "Linarr_exact.optimum: %d elements, %d nets: too large for the cut table"
         n (Netlist.n_nets netlist));
  let table = Netlist.cut_table netlist in
  let full = (1 lsl n) - 1 and high = 1 lsl (n - 1) in
  let cut s = Bytes.get_uint16_le table (2 * if s land high = 0 then s else s lxor full) in
  let f = Bytes.make (2 * (full + 1)) '\000' in
  let get s = Bytes.get_uint16_le f (2 * s) in
  (* The element of [s] whose removal leaves the least f, lowest index
     on ties. *)
  let last s =
    let best = ref (-1) and least = ref max_int in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 && get (s lxor (1 lsl v)) < !least then begin
        best := v;
        least := get (s lxor (1 lsl v))
      end
    done;
    !best
  in
  for s = 1 to full do
    Bytes.set_uint16_le f (2 * s) (max (cut s) (get (s lxor (1 lsl last s))))
  done;
  let order = Array.make n 0 and s = ref full in
  for k = n - 1 downto 0 do
    order.(k) <- last !s;
    s := !s lxor (1 lsl order.(k))
  done;
  (get full, order)

let optimal_density netlist = fst (optimum netlist)
