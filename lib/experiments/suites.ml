type linarr_suite = {
  netlists : Netlist.t array;
  initial_orders : int array array;
  goto_orders : int array array Lazy.t;
}

let build_suite ~seed ~make =
  let rng = Rng.create ~seed in
  let netlists = Array.init 30 (fun _ -> make (Rng.split rng)) in
  let initial_orders =
    Array.map (fun nl -> Rng.permutation rng (Netlist.n_elements nl)) netlists
  in
  { netlists; initial_orders; goto_orders = lazy (Array.map Goto.order netlists) }

let gola () =
  build_suite ~seed:1985 ~make:(fun rng -> Netlist.random_gola rng ~elements:15 ~nets:150)

let nola () =
  build_suite ~seed:2385 ~make:(fun rng ->
      Netlist.random_nola rng ~elements:15 ~nets:150 ~min_pins:2 ~max_pins:5)

let initial_arrangement suite i =
  Arrangement.create ~order:suite.initial_orders.(i) suite.netlists.(i)

let goto_arrangement suite i =
  Arrangement.create ~order:(Lazy.force suite.goto_orders).(i) suite.netlists.(i)

let streams rng suite = Array.map (fun _ -> Rng.split rng) suite.netlists

let runs ?(start = initial_arrangement) streams suite run =
  Array.mapi
    (fun i rng ->
      let state = start suite i in
      let initial = Arrangement.density state in
      let r = Engine.or_raise (run rng state) in
      (initial - Arrangement.density r.Mc_problem.best, r))
    streams

let total runs = Array.fold_left (fun sum (reduction, _) -> sum + reduction) 0 runs

let total_reduction ?start rng suite run = total (runs ?start (streams rng suite) suite run)

let total_density suite orders =
  let sum = ref 0 in
  Array.iteri
    (fun i nl -> sum := !sum + Arrangement.density_of_order nl orders.(i))
    suite.netlists;
  !sum

let total_initial_density suite = total_density suite suite.initial_orders
let total_goto_density suite = total_density suite (Lazy.force suite.goto_orders)
let goto_reduction suite = total_initial_density suite - total_goto_density suite

let evals_per_second = 250

let seconds s =
  Budget.Evaluations (int_of_float (Float.round (s *. float_of_int evals_per_second)))

let paper_times = [ 6.; 9.; 12. ]
