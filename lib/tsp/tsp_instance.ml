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

let random_uniform rng ~n =
  if n < 3 then invalid_arg "Tsp_instance.random_uniform: n < 3";
  create (Array.init n (fun _ -> (Rng.unit_float rng, Rng.unit_float rng)))

let random_clustered rng ~n ~clusters ~spread =
  if n < 3 then invalid_arg "Tsp_instance.random_clustered: n < 3";
  if clusters < 1 then invalid_arg "Tsp_instance.random_clustered: clusters < 1";
  if spread <= 0. then invalid_arg "Tsp_instance.random_clustered: spread <= 0";
  let centres =
    Array.init clusters (fun _ -> (Rng.unit_float rng, Rng.unit_float rng))
  in
  create
    (Array.init n (fun _ ->
         let cx, cy = centres.(Rng.int rng clusters) in
         ( cx +. Rng.gaussian rng ~mu:0. ~sigma:spread,
           cy +. Rng.gaussian rng ~mu:0. ~sigma:spread )))
