(* Invariants:
   - cell_at and slot_of are inverse on occupied slots (-1 = empty);
   - bbox arrays hold each net's pin bounding box in grid coordinates;
   - hpwl = sum over nets of (width + height) of that box. *)

type t = {
  netlist : Netlist.t;
  rows : int;
  cols : int;
  slot_of : int array; (* cell -> flat slot *)
  cell_at : int array; (* flat slot -> cell or -1 *)
  lo_x : int array; (* net -> bbox *)
  hi_x : int array;
  lo_y : int array;
  hi_y : int array;
  mutable hpwl : int;
  (* scratch for de-duplicating touched nets *)
  net_mark : int array;
  mutable mark : int;
  touched : int array;
  mutable n_touched : int;
}

let netlist t = t.netlist
let rows t = t.rows
let cols t = t.cols
let hpwl t = t.hpwl
let slot_of t cell = (t.slot_of.(cell) / t.cols, t.slot_of.(cell) mod t.cols)

let cell_at t r c =
  let cell = t.cell_at.((r * t.cols) + c) in
  if cell < 0 then None else Some cell

let net_hpwl t j = t.hi_x.(j) - t.lo_x.(j) + (t.hi_y.(j) - t.lo_y.(j))

let compute_bbox t j =
  let lo_x = ref max_int and hi_x = ref (-1) in
  let lo_y = ref max_int and hi_y = ref (-1) in
  Netlist.iter_pins t.netlist j (fun cell ->
      let s = t.slot_of.(cell) in
      let y = s / t.cols and x = s mod t.cols in
      if x < !lo_x then lo_x := x;
      if x > !hi_x then hi_x := x;
      if y < !lo_y then lo_y := y;
      if y > !hi_y then hi_y := y);
  (!lo_x, !hi_x, !lo_y, !hi_y)

let recompute_all t =
  t.hpwl <- 0;
  for j = 0 to Netlist.n_nets t.netlist - 1 do
    let lo_x, hi_x, lo_y, hi_y = compute_bbox t j in
    t.lo_x.(j) <- lo_x;
    t.hi_x.(j) <- hi_x;
    t.lo_y.(j) <- lo_y;
    t.hi_y.(j) <- hi_y;
    t.hpwl <- t.hpwl + net_hpwl t j
  done

let is_permutation n a =
  Array.length a = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      if x < 0 || x >= n || seen.(x) then false
      else (
        seen.(x) <- true;
        true))
    a

let create ?order ~rows ~cols netlist =
  if rows <= 0 || cols <= 0 then invalid_arg "Placement.create: non-positive grid";
  let n = Netlist.n_elements netlist in
  if n > rows * cols then invalid_arg "Placement.create: grid smaller than cell count";
  let order =
    match order with
    | None -> Array.init n (fun i -> i)
    | Some o ->
        if not (is_permutation n o) then
          invalid_arg "Placement.create: order is not a permutation";
        Array.copy o
  in
  let m = Netlist.n_nets netlist in
  let t =
    {
      netlist;
      rows;
      cols;
      slot_of = Array.make (max 1 n) 0;
      cell_at = Array.make (rows * cols) (-1);
      lo_x = Array.make m 0;
      hi_x = Array.make m 0;
      lo_y = Array.make m 0;
      hi_y = Array.make m 0;
      hpwl = 0;
      net_mark = Array.make m 0;
      mark = 0;
      touched = Array.make m 0;
      n_touched = 0;
    }
  in
  Array.iteri
    (fun pos cell ->
      t.slot_of.(cell) <- pos;
      t.cell_at.(pos) <- cell)
    order;
  recompute_all t;
  t

let random rng ~rows ~cols netlist =
  let n = Netlist.n_elements netlist in
  let slots = Rng.sample_without_replacement rng ~k:n ~n:(rows * cols) in
  let t = create ~rows ~cols netlist in
  (* Rebuild occupancy from the random slots. *)
  Array.fill t.cell_at 0 (rows * cols) (-1);
  Array.iteri
    (fun cell s ->
      t.slot_of.(cell) <- s;
      t.cell_at.(s) <- cell)
    slots;
  recompute_all t;
  t

let goto_seeded ~rows ~cols netlist =
  create ~order:(Goto.order netlist) ~rows ~cols netlist

let copy t =
  {
    t with
    slot_of = Array.copy t.slot_of;
    cell_at = Array.copy t.cell_at;
    lo_x = Array.copy t.lo_x;
    hi_x = Array.copy t.hi_x;
    lo_y = Array.copy t.lo_y;
    hi_y = Array.copy t.hi_y;
    net_mark = Array.copy t.net_mark;
    touched = Array.copy t.touched;
  }

let touch t j =
  if t.net_mark.(j) <> t.mark then begin
    t.net_mark.(j) <- t.mark;
    t.touched.(t.n_touched) <- j;
    t.n_touched <- t.n_touched + 1
  end

let swap_slots t s1 s2 =
  let slots = t.rows * t.cols in
  if s1 < 0 || s1 >= slots || s2 < 0 || s2 >= slots then
    invalid_arg "Placement.swap_slots: slot out of range";
  if s1 <> s2 then begin
    let a = t.cell_at.(s1) and b = t.cell_at.(s2) in
    if a >= 0 || b >= 0 then begin
      t.mark <- t.mark + 1;
      t.n_touched <- 0;
      if a >= 0 then Netlist.iter_incident t.netlist a (fun j -> touch t j);
      if b >= 0 then Netlist.iter_incident t.netlist b (fun j -> touch t j);
      for i = 0 to t.n_touched - 1 do
        t.hpwl <- t.hpwl - net_hpwl t t.touched.(i)
      done;
      t.cell_at.(s1) <- b;
      t.cell_at.(s2) <- a;
      if a >= 0 then t.slot_of.(a) <- s2;
      if b >= 0 then t.slot_of.(b) <- s1;
      for i = 0 to t.n_touched - 1 do
        let j = t.touched.(i) in
        let lo_x, hi_x, lo_y, hi_y = compute_bbox t j in
        t.lo_x.(j) <- lo_x;
        t.hi_x.(j) <- hi_x;
        t.lo_y.(j) <- lo_y;
        t.hi_y.(j) <- hi_y;
        t.hpwl <- t.hpwl + net_hpwl t j
      done
    end
  end

let check t =
  let n = Netlist.n_elements t.netlist in
  for cell = 0 to n - 1 do
    if t.cell_at.(t.slot_of.(cell)) <> cell then
      failwith "Placement.check: slot_of/cell_at are not inverse"
  done;
  let occupied = ref 0 in
  Array.iter (fun c -> if c >= 0 then incr occupied) t.cell_at;
  if !occupied <> n then failwith "Placement.check: occupancy count mismatch";
  let total = ref 0 in
  for j = 0 to Netlist.n_nets t.netlist - 1 do
    let lo_x, hi_x, lo_y, hi_y = compute_bbox t j in
    if
      t.lo_x.(j) <> lo_x || t.hi_x.(j) <> hi_x || t.lo_y.(j) <> lo_y
      || t.hi_y.(j) <> hi_y
    then failwith "Placement.check: stale bounding box";
    total := !total + (hi_x - lo_x) + (hi_y - lo_y)
  done;
  if !total <> t.hpwl then failwith "Placement.check: stale HPWL"

module Problem = struct
  type state = t
  type move = int * int

  let cost state = float_of_int state.hpwl

  let random_move rng state =
    (* Pick an occupied slot (via a random cell) and any other slot. *)
    let n = Netlist.n_elements state.netlist in
    let slots = state.rows * state.cols in
    let s1 = state.slot_of.(Rng.int rng n) in
    let s2 =
      let s = Rng.int rng (slots - 1) in
      if s >= s1 then s + 1 else s
    in
    (s1, s2)

  let apply state (s1, s2) = swap_slots state s1 s2
  let revert state (s1, s2) = swap_slots state s1 s2
  let copy = copy

  let moves state =
    Mc_problem.pairs (state.rows * state.cols)
    |> Seq.filter (fun (s1, s2) -> state.cell_at.(s1) >= 0 || state.cell_at.(s2) >= 0)
end
