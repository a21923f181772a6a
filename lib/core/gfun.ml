(* One case per formula of §3's table; [k] and the name complete a
   class.  Both flags below are read off the form, so a class cannot
   carry a flag its formula contradicts. *)
type form =
  | Boltzmann
  | One
  | Two_level
  | Power of int
  | Exp
  | Power_diff of int
  | Exp_diff
  | Cohoon of int
  | Custom of (temp:int -> y:float -> hi:float -> hj:float -> float)

type t = { name : string; k : int; form : form }

let name t = t.name
let k t = t.k

let uses_temperature t =
  match t.form with
  | One | Two_level | Cohoon _ -> false
  | Boltzmann | Power _ | Exp | Power_diff _ | Exp_diff | Custom _ -> true

let defer_uphill t = match t.form with One -> true | _ -> false

let check_schedule ~caller t schedule =
  if Schedule.length schedule <> t.k then
    invalid_arg
      (Printf.sprintf "%s: schedule length %d but %s expects k = %d" caller
         (Schedule.length schedule) t.name t.k)

(* [x *. x *. ... *. x] from the left, starting at [1.].  A loop, so the
   accumulator stays unboxed: a recursive helper's float argument is
   boxed at every call. *)
let pow_int x p =
  let acc = ref 1. in
  for _ = 1 to p do
    acc := !acc *. x
  done;
  !acc

let exp_scaled x = (exp x -. 1.) /. (Float.exp 1. -. 1.)

(* The paper never evaluates g on a strict improvement (Figure 1 Step 3
   / Figure 2 Step 2 take those unconditionally), so [hj >= hi] holds at
   every call.  Lateral moves ([hj = hi]) need explicit handling in the
   "difference" classes: naive division yields y/0, which is +infinity
   for y > 0 but NaN for y = 0 — and a NaN poisons every later
   Metropolis comparison (r < NaN is always false, silently freezing
   the walk).  The classes therefore return +infinity on a plateau
   move regardless of y: certain acceptance, the same behaviour
   Metropolis exhibits there (e^0 = 1). *)
let eval t ~temp ~y ~hi ~hj =
  match t.form with
  | Boltzmann -> exp (-.(hj -. hi) /. y)
  | One -> 1.
  | Two_level -> if temp = 1 then 1. else 0.5
  | Power degree -> y *. pow_int hi degree
  | Exp -> exp_scaled (hi /. y)
  | Power_diff degree -> if hj = hi then infinity else y /. pow_int (hj -. hi) degree
  | Exp_diff -> if hj = hi then infinity else exp_scaled (y /. (hj -. hi))
  | Cohoon m -> Float.min (hi /. float_of_int (m + 5)) 0.9
  | Custom f -> f ~temp ~y ~hi ~hj

let make ~name ~k form =
  if k <= 0 then invalid_arg "Gfun.make: k <= 0";
  { name; k; form }

let custom ~name ~k eval = make ~name ~k (Custom eval)

let schedule t base =
  if not (uses_temperature t) then Schedule.constant ~k:t.k 1.
  else if t.k = 1 then Schedule.of_array [| base |]
  else Schedule.geometric ~y1:base ~ratio:0.9 ~k:t.k

let metropolis = make ~name:"Metropolis" ~k:1 Boltzmann
let six_temp_annealing = make ~name:"Six Temperature Annealing" ~k:6 Boltzmann

let annealing ~k =
  if k = 1 then metropolis
  else if k = 6 then six_temp_annealing
  else make ~name:(Printf.sprintf "%d Temperature Annealing" k) ~k Boltzmann

let g_one = make ~name:"g = 1" ~k:1 One
let two_level = make ~name:"Two level g" ~k:2 Two_level

(* Classes 5–20: one or six temperatures, the six-temperature row
   named with a "6 " prefix. *)
let family ~k name form =
  if k <> 1 && k <> 6 then invalid_arg "Gfun: classes 5-20 take k = 1 or k = 6";
  make ~name:(if k = 6 then "6 " ^ name else name) ~k form

let poly_name degree =
  match degree with
  | 1 -> "Linear"
  | 2 -> "Quadratic"
  | 3 -> "Cubic"
  | d -> Printf.sprintf "Degree-%d" d

let check_degree degree =
  if degree < 1 then invalid_arg "Gfun: polynomial degree must be >= 1"

let poly ~k ~degree =
  check_degree degree;
  family ~k (poly_name degree) (Power degree)

let exponential ~k = family ~k "Exponential" Exp

let poly_diff ~k ~degree =
  check_degree degree;
  family ~k (poly_name degree ^ " Diff") (Power_diff degree)

let exponential_diff ~k = family ~k "Exponential Diff" Exp_diff

let cohoon_sahni ~m =
  if m < 0 then invalid_arg "Gfun.cohoon_sahni: negative net count";
  make ~name:"[COHO83a]" ~k:1 (Cohoon m)

let over_k row = List.concat_map (fun k -> row ~k) [ 1; 6 ]
let first_four = [ metropolis; six_temp_annealing; g_one; two_level ]

let diff_classes =
  over_k (fun ~k ->
      [ poly_diff ~k ~degree:1; poly_diff ~k ~degree:2; poly_diff ~k ~degree:3; exponential_diff ~k ])

let classes =
  first_four
  @ over_k (fun ~k ->
        [ poly ~k ~degree:1; poly ~k ~degree:2; poly ~k ~degree:3; exponential ~k ])
  @ diff_classes

let short_classes = first_four @ diff_classes
let catalog ~m = cohoon_sahni ~m :: classes
let short_catalog ~m = cohoon_sahni ~m :: short_classes

let find_by_name ~m needle =
  let needle = String.lowercase_ascii needle in
  List.find_opt (fun g -> String.lowercase_ascii g.name = needle) (catalog ~m)
