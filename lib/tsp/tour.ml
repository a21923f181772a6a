(* Previous cached lengths, so [two_opt_undo] can restore [len]
   bit-for-bit instead of re-deriving it with delta arithmetic (which
   rounds differently and drifts).  A small ring suffices: annealing
   engines undo at most the latest move, so older entries are dead. *)
let undo_depth = 64

type t = {
  inst : Tsp_instance.t;
  pts : Tsp_instance.view; (* the instance's coordinates, read by [dist] *)
  order : int array;
  mutable len : float;
  undo : float array;
  mutable undo_top : int; (* next slot to write *)
  mutable undo_used : int; (* live entries, at most [undo_depth] *)
}

let instance t = t.inst
let size t = Array.length t.order
let city_at t p = t.order.(((p mod size t) + size t) mod size t)
let order t = Array.copy t.order
let length t = t.len
(* [Tsp_instance.distance]'s formula, computed here: a call into
   another module cannot be inlined and returns a boxed float. *)
let[@inline] dist (pts : Tsp_instance.view) a b =
  let dx = pts.xs.(a) -. pts.xs.(b) and dy = pts.ys.(a) -. pts.ys.(b) in
  sqrt ((dx *. dx) +. (dy *. dy))

let compute_length pts order =
  let n = Array.length order in
  let total = ref 0. in
  for p = 0 to n - 1 do
    total := !total +. dist pts order.(p) order.((p + 1) mod n)
  done;
  !total

let recompute_length t = compute_length t.pts t.order

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

let of_order inst o =
  if not (is_permutation (Tsp_instance.size inst) o) then
    invalid_arg "Tour.of_order: not a permutation of the cities";
  let order = Array.copy o and pts = Tsp_instance.view inst in
  {
    inst;
    pts;
    order;
    len = compute_length pts order;
    undo = Array.make undo_depth 0.;
    undo_top = 0;
    undo_used = 0;
  }

let identity inst = of_order inst (Array.init (Tsp_instance.size inst) (fun i -> i))
let random rng inst = of_order inst (Rng.permutation rng (Tsp_instance.size inst))
let copy t = { t with order = Array.copy t.order; undo = Array.copy t.undo }

let push_len t =
  t.undo.(t.undo_top) <- t.len;
  t.undo_top <- (t.undo_top + 1) mod undo_depth;
  if t.undo_used < undo_depth then t.undo_used <- t.undo_used + 1

let pop_len t =
  if t.undo_used = 0 then None
  else begin
    t.undo_top <- (t.undo_top + undo_depth - 1) mod undo_depth;
    t.undo_used <- t.undo_used - 1;
    Some t.undo.(t.undo_top)
  end

let check_segment t i j name =
  let n = size t in
  if i < 0 || j >= n || i >= j then invalid_arg (name ^ ": need 0 <= i < j < n")

(* Reversing order[i..j] replaces edges (prev_i, i) and (j, next_j) by
   (prev_i, j) and (i, next_j); interior edges just flip direction. *)
let two_opt_delta t i j =
  check_segment t i j "Tour.two_opt_delta";
  let n = size t in
  if i = 0 && j = n - 1 then 0.
  else
    let a = t.order.((i + n - 1) mod n)
    and b = t.order.(i)
    and c = t.order.(j)
    and d = t.order.((j + 1) mod n) in
    let pts = t.pts in
    dist pts a c +. dist pts b d -. dist pts a b -. dist pts c d

let reverse_segment t i j =
  let lo = ref i and hi = ref j in
  while !lo < !hi do
    let tmp = t.order.(!lo) in
    t.order.(!lo) <- t.order.(!hi);
    t.order.(!hi) <- tmp;
    incr lo;
    decr hi
  done

let two_opt t i j =
  let delta = two_opt_delta t i j in
  push_len t;
  reverse_segment t i j;
  t.len <- t.len +. delta

let two_opt_undo t i j =
  check_segment t i j "Tour.two_opt_undo";
  (* The reversal is its own inverse; the length is restored from the
     saved value rather than recomputed, because fl(fl(len + d) - d)
     generally differs from len in the last bits. *)
  let len =
    match pop_len t with Some len -> len | None -> t.len +. two_opt_delta t i j
  in
  reverse_segment t i j;
  t.len <- len

let restore t ~order ~len =
  if Array.length order <> size t then
    invalid_arg "Tour.restore: order length mismatch";
  Array.blit order 0 t.order 0 (size t);
  t.len <- len

let check_or_opt t ~seg ~len ~dest name =
  let n = size t in
  if len < 1 || len > 3 then invalid_arg (name ^ ": segment length must be 1..3");
  if seg < 0 || seg + len > n then invalid_arg (name ^ ": segment out of range");
  if dest >= seg - 1 && dest < seg + len then invalid_arg (name ^ ": destination inside segment");
  if dest < 0 || dest >= n then invalid_arg (name ^ ": destination out of range");
  if seg = 0 && dest = n - 1 then invalid_arg (name ^ ": destination inside segment")

let or_opt_delta t ~seg ~len ~dest =
  check_or_opt t ~seg ~len ~dest "Tour.or_opt_delta";
  let n = size t in
  let a = t.order.((seg + n - 1) mod n)
  and b = t.order.(seg)
  and c = t.order.(seg + len - 1)
  and d = t.order.((seg + len) mod n)
  and e = t.order.(dest)
  and f = t.order.((dest + 1) mod n) in
  let pts = t.pts in
  dist pts a d +. dist pts e b +. dist pts c f -. dist pts a b -. dist pts c d
  -. dist pts e f

let or_opt t ~seg ~len ~dest =
  let delta = or_opt_delta t ~seg ~len ~dest in
  let n = size t in
  let segment = Array.sub t.order seg len in
  (* Remove the segment, then reinsert after the city that was at
     [dest]. *)
  let rest = Array.make (n - len) 0 in
  let w = ref 0 in
  for p = 0 to n - 1 do
    if p < seg || p >= seg + len then begin
      rest.(!w) <- t.order.(p);
      incr w
    end
  done;
  let dest_city = t.order.(dest) in
  let insert_after = ref 0 in
  Array.iteri (fun idx c -> if c = dest_city then insert_after := idx) rest;
  let w = ref 0 in
  let out = Array.make n 0 in
  for p = 0 to Array.length rest - 1 do
    out.(!w) <- rest.(p);
    incr w;
    if p = !insert_after then begin
      Array.blit segment 0 out !w len;
      w := !w + len
    end
  done;
  Array.blit out 0 t.order 0 n;
  t.len <- t.len +. delta
