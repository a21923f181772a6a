(* Shared random-instance generators for the property harness.

   A property that needs a problem state draws a [recipe] (a size and a
   seed) and materializes the state deterministically from it, so a
   qcheck counterexample prints as a reproducible recipe — not an
   opaque mutable value — and shrinking walks over sizes and seeds
   rather than over state internals it could corrupt. *)

type recipe = { n : int; seed : int }

let print_recipe tag { n; seed } = Printf.sprintf "%s{n=%d; seed=%d}" tag n seed

let gen_recipe ~lo ~hi =
  QCheck.Gen.(
    int_range lo hi >>= fun n ->
    int_bound 1_000_000 >|= fun seed -> { n; seed })

let recipe tag ~lo ~hi =
  QCheck.make ~print:(print_recipe tag) (gen_recipe ~lo ~hi)

(* Streams are derived from the recipe seed with distinct offsets:
   the instance stream and the walk stream must not alias, or a
   property would exercise correlated instances and walks only. *)
let instance_rng { seed; _ } = Rng.create ~seed
let walk_rng { seed; _ } = Rng.create ~seed:(seed + 7919)

let tsp_recipe = recipe "tsp" ~lo:4 ~hi:24

let make_tsp r =
  let rng = instance_rng r in
  Tour.random rng (Tsp_instance.random_uniform rng ~n:r.n)

let qap_recipe = recipe "qap" ~lo:3 ~hi:12
let make_qap r = Qap.random_instance (instance_rng r) ~n:r.n ~max_entry:9

(* Alternates between the paper's two instance families by seed parity:
   2-pin GOLA nets take the move kernel's two-pin span update, multi-pin
   NOLA nets its extend-or-rescan case. *)
let linarr_recipe = recipe "linarr" ~lo:2 ~hi:20

(* Larger instances, so a random move's window spans tens of positions,
   and the smallest one, where every window is the whole arrangement. *)
let linarr_large_recipe = recipe "linarr" ~lo:40 ~hi:120
let linarr_pair_recipe = recipe "linarr" ~lo:2 ~hi:2

let make_arrangement r =
  let rng = instance_rng r in
  let elements = r.n in
  let nl =
    if r.seed land 1 = 0 then
      Netlist.random_gola rng ~elements ~nets:(3 * elements)
    else
      Netlist.random_nola rng ~elements ~nets:(2 * elements) ~min_pins:2
        ~max_pins:(min 5 elements)
  in
  Arrangement.random rng nl

(* [n] is half the element count, so the instance is always balanced. *)
let bipartition_recipe = recipe "bipartition" ~lo:2 ~hi:8

let make_bipartition r =
  let rng = instance_rng r in
  let elements = 2 * r.n in
  let nl = Netlist.random_gola rng ~elements ~nets:(3 * elements) in
  Bipartition.random_balanced rng nl
