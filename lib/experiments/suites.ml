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

let total_reduction ?(start = initial_arrangement) rng suite run =
  let sum = ref 0 in
  for i = 0 to Array.length suite.netlists - 1 do
    let state = start suite i in
    let initial = Arrangement.density state in
    let r = run (Rng.split rng) state in
    sum := !sum + (initial - Arrangement.density r.Mc_problem.best)
  done;
  !sum

let total_initial_density suite =
  let sum = ref 0 in
  Array.iteri
    (fun i nl -> sum := !sum + Arrangement.density_of_order nl suite.initial_orders.(i))
    suite.netlists;
  !sum

let total_goto_density suite =
  let orders = Lazy.force suite.goto_orders in
  let sum = ref 0 in
  Array.iteri
    (fun i nl -> sum := !sum + Arrangement.density_of_order nl orders.(i))
    suite.netlists;
  !sum

let evals_per_second = 250

let seconds s =
  Budget.Evaluations (int_of_float (Float.round (s *. float_of_int evals_per_second)))

let paper_times = [ 6.; 9.; 12. ]
