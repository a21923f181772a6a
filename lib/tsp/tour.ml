(* Previous cached lengths, so [two_opt_undo] can restore [len]
   bit-for-bit instead of re-deriving it with delta arithmetic (which
   rounds differently and drifts).  A small ring suffices: annealing
   engines undo at most the latest move, so older entries are dead. *)
let undo_depth = 64

(* Orientation: the logical tour is [phys] read from slot [base],
   forward when the flip bit [dir] is 1 and backward when it is -1,
   wrapping at both ends.  A 2-opt reverses whichever of its segment
   and the segment's cyclic complement is shorter; reversing the
   complement leaves the logical tour reversed as a whole, which
   [base] and [dir] absorb.  Every accessor below works in logical
   positions. *)
type t = {
  inst : Tsp_instance.t;
  pts : Tsp_instance.view; (* the instance's coordinates, read by [dist] *)
  phys : int array;
  mutable base : int; (* slot of logical position 0 *)
  mutable dir : int; (* 1, or -1 when logical positions run down [phys] *)
  len : float array; (* one slot: the cached length, stored unboxed *)
  undo : float array;
  mutable undo_top : int; (* next slot to write *)
  mutable undo_used : int; (* live entries, at most [undo_depth] *)
  (* The last [two_opt_delta] (i, j) and its delta, which [two_opt]
     reuses; [priced_i = -1] when any mutation has made it stale.  A
     one-slot float array, so recording the delta does not box it. *)
  mutable priced_i : int;
  mutable priced_j : int;
  priced : float array;
}

let instance t = t.inst
let size t = Array.length t.phys

(* Slot of logical position [p], for [0 <= p < n]: [base + dir * p],
   which lies in (-n, 2n), brought into [0, n) by masks rather than
   branches.  Once a tour has flipped a few times, both the direction
   and the wrap are coin tosses to a branch predictor. *)
let[@inline] slot t p =
  let n = Array.length t.phys in
  let q = t.base + (t.dir * p) in
  let q = q - (n land ((n - 1 - q) asr 62)) in
  q + (n land (q asr 62))

let[@inline] at t p = t.phys.(slot t p)
let city_at t p = at t (((p mod size t) + size t) mod size t)
let order t = Array.init (size t) (at t)
let length t = t.len.(0)
(* [Tsp_instance.distance]'s formula, computed here: a call into
   another module cannot be inlined and returns a boxed float. *)
let[@inline] dist (pts : Tsp_instance.view) a b =
  let dx = pts.xs.(a) -. pts.xs.(b) and dy = pts.ys.(a) -. pts.ys.(b) in
  sqrt ((dx *. dx) +. (dy *. dy))

let recompute_length t =
  let n = size t in
  let total = ref 0. in
  for p = 0 to n - 1 do
    total := !total +. dist t.pts (at t p) (at t (if p = n - 1 then 0 else p + 1))
  done;
  !total

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
  let t =
    {
      inst;
      pts = Tsp_instance.view inst;
      phys = Array.copy o;
      base = 0;
      dir = 1;
      len = [| 0. |];
      undo = Array.make undo_depth 0.;
      undo_top = 0;
      undo_used = 0;
      priced_i = -1;
      priced_j = -1;
      priced = [| 0. |];
    }
  in
  t.len.(0) <- recompute_length t;
  t

let identity inst = of_order inst (Array.init (Tsp_instance.size inst) (fun i -> i))
let random rng inst = of_order inst (Rng.permutation rng (Tsp_instance.size inst))

let copy t =
  {
    t with
    phys = Array.copy t.phys;
    len = [| t.len.(0) |];
    undo = Array.copy t.undo;
    priced_i = -1;
    priced = [| 0. |];
  }

let push_len t =
  t.undo.(t.undo_top) <- t.len.(0);
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
  let delta =
    if i = 0 && j = n - 1 then 0.
    else
      let a = at t (if i = 0 then n - 1 else i - 1)
      and b = at t i
      and c = at t j
      and d = at t (if j = n - 1 then 0 else j + 1) in
      let pts = t.pts in
      dist pts a c +. dist pts b d -. dist pts a b -. dist pts c d
  in
  t.priced_i <- i;
  t.priced_j <- j;
  t.priced.(0) <- delta;
  delta

(* Reverse the [m] slots of [a] from slot [s] on, wrapping past the
   end, in stretches where neither end wraps.  The [int array]
   annotation matters: unannotated, [a] is ['a array] and every access
   goes through the generic path and [caml_modify]. *)
let reverse_slots (a : int array) s m =
  let n = Array.length a in
  let lo = ref s and hi = ref (if s + m - 1 >= n then s + m - 1 - n else s + m - 1) in
  let left = ref (m / 2) in
  while !left > 0 do
    let l = !lo and h = !hi in
    let run = Int.min !left (Int.min (n - l) (h + 1)) in
    for k = 0 to run - 1 do
      let x = a.(l + k) in
      a.(l + k) <- a.(h - k);
      a.(h - k) <- x
    done;
    left := !left - run;
    lo := if l + run = n then 0 else l + run;
    hi := if h - run < 0 then n - 1 else h - run
  done

(* Reverse logical positions [i..j], or their complement [j+1..i-1+n]
   when that is shorter and then read the tour the other way round:
   logical position p now holds what position (i + j - p) mod n held,
   so position 0 is the old position (i + j) mod n. *)
let reverse t i j =
  let n = size t in
  let m = j - i + 1 in
  if 2 * m <= n then reverse_slots t.phys (slot t (if t.dir > 0 then i else j)) m
  else begin
    reverse_slots t.phys
      (slot t (if t.dir > 0 then j + 1 else if i = 0 then n - 1 else i - 1))
      (n - m);
    t.base <- slot t (if i + j >= n then i + j - n else i + j);
    t.dir <- -t.dir
  end

let two_opt t i j =
  if not (t.priced_i = i && t.priced_j = j) then ignore (two_opt_delta t i j);
  let delta = t.priced.(0) in
  t.priced_i <- -1;
  push_len t;
  reverse t i j;
  t.len.(0) <- t.len.(0) +. delta

let two_opt_undo t i j =
  check_segment t i j "Tour.two_opt_undo";
  (* The reversal is its own inverse; the length is restored from the
     saved value rather than recomputed, because fl(fl(len + d) - d)
     generally differs from len in the last bits. *)
  let len =
    match pop_len t with Some len -> len | None -> t.len.(0) +. two_opt_delta t i j
  in
  t.priced_i <- -1;
  reverse t i j;
  t.len.(0) <- len

(* Rewrite [phys] in logical order, so position p is slot p. *)
let normalise t =
  if t.base <> 0 || t.dir < 0 then begin
    Array.blit (order t) 0 t.phys 0 (size t);
    t.base <- 0;
    t.dir <- 1
  end

let restore t ~order ~len =
  if Array.length order <> size t then
    invalid_arg "Tour.restore: order length mismatch";
  Array.blit order 0 t.phys 0 (size t);
  t.base <- 0;
  t.dir <- 1;
  t.priced_i <- -1;
  t.len.(0) <- len

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
  let a = at t ((seg + n - 1) mod n)
  and b = at t seg
  and c = at t (seg + len - 1)
  and d = at t ((seg + len) mod n)
  and e = at t dest
  and f = at t ((dest + 1) mod n) in
  let pts = t.pts in
  dist pts a d +. dist pts e b +. dist pts c f -. dist pts a b -. dist pts c d
  -. dist pts e f

let or_opt t ~seg ~len ~dest =
  let delta = or_opt_delta t ~seg ~len ~dest in
  let n = size t in
  normalise t;
  t.priced_i <- -1;
  let segment = Array.sub t.phys seg len in
  (* Remove the segment, then reinsert after the city that was at
     [dest]. *)
  let rest = Array.make (n - len) 0 in
  let w = ref 0 in
  for p = 0 to n - 1 do
    if p < seg || p >= seg + len then begin
      rest.(!w) <- t.phys.(p);
      incr w
    end
  done;
  let dest_city = t.phys.(dest) in
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
  Array.blit out 0 t.phys 0 n;
  t.len.(0) <- t.len.(0) +. delta
