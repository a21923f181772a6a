type t = {
  name : string;
  k : int;
  uses_temperature : bool;
  defer_uphill : bool;
  eval : temp:int -> y:float -> hi:float -> hj:float -> float;
}

let name t = t.name
let k t = t.k
let uses_temperature t = t.uses_temperature
let defer_uphill t = t.defer_uphill
let eval t = t.eval

let make ?(uses_temperature = true) ?(defer_uphill = false) ~name ~k eval =
  if k <= 0 then invalid_arg "Gfun.make: k <= 0";
  { name; k; uses_temperature; defer_uphill; eval }

let custom ~name ~k eval = make ~name ~k eval

let schedule t base =
  if not t.uses_temperature then Schedule.constant ~k:t.k 1.
  else if t.k = 1 then Schedule.of_array [| base |]
  else Schedule.geometric ~y1:base ~ratio:0.9 ~k:t.k

(* The paper never evaluates g on a strict improvement (Figure 1 Step 3
   / Figure 2 Step 2 take those unconditionally), so [hj >= hi] holds at
   every call.  Lateral moves ([hj = hi]) need explicit handling in the
   "difference" classes: naive division yields y/0, which is +infinity
   for y > 0 but NaN for y = 0 — and a NaN poisons every later
   Metropolis comparison (r < NaN is always false, silently freezing
   the walk).  The classes therefore return +infinity on a plateau
   move regardless of y: certain acceptance, the same behaviour
   Metropolis exhibits there (e^0 = 1). *)

let annealing_eval ~temp:_ ~y ~hi ~hj = exp (-.(hj -. hi) /. y)

let metropolis = make ~name:"Metropolis" ~k:1 annealing_eval
let six_temp_annealing = make ~name:"Six Temperature Annealing" ~k:6 annealing_eval

let annealing ~k =
  if k = 1 then metropolis
  else if k = 6 then six_temp_annealing
  else make ~name:(Printf.sprintf "%d Temperature Annealing" k) ~k annealing_eval

let g_one =
  make ~name:"g = 1" ~k:1 ~uses_temperature:false ~defer_uphill:true
    (fun ~temp:_ ~y:_ ~hi:_ ~hj:_ -> 1.)

let two_level =
  make ~name:"Two level g" ~k:2 ~uses_temperature:false
    (fun ~temp ~y:_ ~hi:_ ~hj:_ -> if temp = 1 then 1. else 0.5)

(* [x *. x *. ... *. x] from the left, starting at [1.].  A loop, so the
   accumulator stays unboxed: a recursive helper's float argument is
   boxed at every call. *)
let pow_int x p =
  let acc = ref 1. in
  for _ = 1 to p do
    acc := !acc *. x
  done;
  !acc

let poly_name degree =
  match degree with
  | 1 -> "Linear"
  | 2 -> "Quadratic"
  | 3 -> "Cubic"
  | d -> Printf.sprintf "Degree-%d" d

let check_degree degree =
  if degree < 1 then invalid_arg "Gfun: polynomial degree must be >= 1"

let poly ~degree =
  check_degree degree;
  make ~name:(poly_name degree) ~k:1 (fun ~temp:_ ~y ~hi ~hj:_ -> y *. pow_int hi degree)

let six_poly ~degree =
  check_degree degree;
  make ~name:("6 " ^ poly_name degree) ~k:6 (fun ~temp:_ ~y ~hi ~hj:_ ->
      y *. pow_int hi degree)

let exp_scaled x = (exp x -. 1.) /. (Float.exp 1. -. 1.)
let exponential = make ~name:"Exponential" ~k:1 (fun ~temp:_ ~y ~hi ~hj:_ -> exp_scaled (hi /. y))

let six_exponential =
  make ~name:"6 Exponential" ~k:6 (fun ~temp:_ ~y ~hi ~hj:_ -> exp_scaled (hi /. y))

let diff_eval degree ~temp:_ ~y ~hi ~hj =
  if hj = hi then infinity else y /. pow_int (hj -. hi) degree

let poly_diff ~degree =
  check_degree degree;
  make ~name:(poly_name degree ^ " Diff") ~k:1 (diff_eval degree)

let six_poly_diff ~degree =
  check_degree degree;
  make ~name:("6 " ^ poly_name degree ^ " Diff") ~k:6 (diff_eval degree)

let exponential_diff =
  make ~name:"Exponential Diff" ~k:1 (fun ~temp:_ ~y ~hi ~hj ->
      if hj = hi then infinity else exp_scaled (y /. (hj -. hi)))

let six_exponential_diff =
  make ~name:"6 Exponential Diff" ~k:6 (fun ~temp:_ ~y ~hi ~hj ->
      if hj = hi then infinity else exp_scaled (y /. (hj -. hi)))

let cohoon_sahni ~m =
  if m < 0 then invalid_arg "Gfun.cohoon_sahni: negative net count";
  make ~name:"[COHO83a]" ~k:1 ~uses_temperature:false
    (fun ~temp:_ ~y:_ ~hi ~hj:_ -> Float.min (hi /. float_of_int (m + 5)) 0.9)

let catalog ~m =
  [
    cohoon_sahni ~m;
    metropolis;
    six_temp_annealing;
    g_one;
    two_level;
    poly ~degree:1;
    poly ~degree:2;
    poly ~degree:3;
    exponential;
    six_poly ~degree:1;
    six_poly ~degree:2;
    six_poly ~degree:3;
    six_exponential;
    poly_diff ~degree:1;
    poly_diff ~degree:2;
    poly_diff ~degree:3;
    exponential_diff;
    six_poly_diff ~degree:1;
    six_poly_diff ~degree:2;
    six_poly_diff ~degree:3;
    six_exponential_diff;
  ]

let short_catalog ~m =
  [
    cohoon_sahni ~m;
    metropolis;
    six_temp_annealing;
    g_one;
    two_level;
    poly_diff ~degree:1;
    poly_diff ~degree:2;
    poly_diff ~degree:3;
    exponential_diff;
    six_poly_diff ~degree:1;
    six_poly_diff ~degree:2;
    six_poly_diff ~degree:3;
    six_exponential_diff;
  ]

(* CLI parsing hits this once per flag, but the tuner's sweep loops
   call it per row — rebuilding the 21-closure catalog each time.
   Index it by normalized name instead, one table per distinct [m]
   (the [COHO83a] row is the only [m]-dependent entry). *)
let index_lock = Mutex.create ()
let index_by_m : (int, (string, t) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let find_by_name ~m needle =
  Mutex.lock index_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock index_lock)
    (fun () ->
      let index =
        match Hashtbl.find_opt index_by_m m with
        | Some idx -> idx
        | None ->
            let idx = Hashtbl.create 32 in
            List.iter
              (fun g -> Hashtbl.replace idx (String.lowercase_ascii g.name) g)
              (catalog ~m);
            Hashtbl.add index_by_m m idx;
            idx
      in
      Hashtbl.find_opt index (String.lowercase_ascii needle))
