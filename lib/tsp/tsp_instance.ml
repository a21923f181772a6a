type view = {
  xs : float array;
  ys : float array;
}

type t = view

let view t = t
let size t = Array.length t.xs
let coord t i = (t.xs.(i), t.ys.(i))

(* [xs.(i) -. xs.(j)] is exactly [-.(xs.(j) -. xs.(i))] and the squares
   agree, so both argument orders return the same bits. *)
let distance t i j =
  let dx = t.xs.(i) -. t.xs.(j) and dy = t.ys.(i) -. t.ys.(j) in
  sqrt ((dx *. dx) +. (dy *. dy))

let create points =
  if Array.length points < 3 then invalid_arg "Tsp_instance.create: need at least 3 cities";
  if Array.exists (fun (x, y) -> not (Float.is_finite x && Float.is_finite y)) points then
    invalid_arg "Tsp_instance.create: non-finite coordinate";
  { xs = Array.map fst points; ys = Array.map snd points }

(* The generators fill [xs] and [ys] directly, their coordinates finite
   by construction.  Each city draws y before x: every recorded instance
   was drawn from [(x, y)] pair literals, which ocamlopt evaluates right
   to left, so this order keeps them bit-identical. *)
let uniform_points rng n =
  let xs = Array.make n 0. and ys = Array.make n 0. in
  for i = 0 to n - 1 do
    ys.(i) <- Rng.unit_float rng;
    xs.(i) <- Rng.unit_float rng
  done;
  { xs; ys }

let random_uniform rng ~n =
  if n < 3 then invalid_arg "Tsp_instance.random_uniform: n < 3";
  uniform_points rng n

let random_clustered rng ~n ~clusters ~spread =
  if n < 3 then invalid_arg "Tsp_instance.random_clustered: n < 3";
  if clusters < 1 then invalid_arg "Tsp_instance.random_clustered: clusters < 1";
  if spread <= 0. then invalid_arg "Tsp_instance.random_clustered: spread <= 0";
  let centres = uniform_points rng clusters in
  let xs = Array.make n 0. and ys = Array.make n 0. in
  for i = 0 to n - 1 do
    let c = Rng.int rng clusters in
    ys.(i) <- centres.ys.(c) +. Rng.gaussian rng ~mu:0. ~sigma:spread;
    xs.(i) <- centres.xs.(c) +. Rng.gaussian rng ~mu:0. ~sigma:spread
  done;
  { xs; ys }
