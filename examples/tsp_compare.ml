(* The [GOLD84]-style comparison the paper's section 2 discusses:
   simulated annealing against dedicated TSP heuristics at an equal
   budget.  Exercises the TSP substrate: instance generation, tours,
   2-opt, constructive heuristics, and the SA adapter.

   Run with: dune exec examples/tsp_compare.exe *)

let () =
  let rng = Rng.create ~seed:60 in
  let inst = Tsp_instance.random_uniform rng ~n:80 in
  let budget = Budget.Evaluations 30_000 in
  let report name length = Printf.printf "%-34s %8.4f\n" name length in
  let nn = Tsp_heuristics.nearest_neighbor inst ~start:0 in
  report "nearest neighbor" (Tour.length nn);
  let nn2 = Tour.copy nn in
  ignore (Tsp_heuristics.two_opt_descent nn2);
  report "nearest neighbor + 2-opt" (Tour.length nn2);
  report "cheapest insertion" (Tour.length (Tsp_heuristics.cheapest_insertion inst));
  report "hull + insertion (CCAO stand-in)" (Tour.length (Tsp_heuristics.hull_insertion inst));
  report "2-opt, 5 random restarts"
    (Tour.length (Tsp_heuristics.two_opt_restarts (Rng.copy rng) inst ~restarts:5));
  let start = Tour.random rng inst in
  let schedule = Temperature.suggest_schedule (module Tsp_problem) (Rng.copy rng) start in
  let walk ~gfun ~schedule =
    Engine.or_raise
      (Engine.run (module Tsp_problem) (Engine.figure1 ()) ~gfun ~schedule ~budget
         (Rng.copy rng) (Tour.copy start))
  in
  let sa = walk ~gfun:Gfun.six_temp_annealing ~schedule in
  report "six-temp annealing (30k moves)" sa.Mc_problem.best_cost;
  let g1 = walk ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.) in
  report "g = 1 (30k moves)" g1.Mc_problem.best_cost;
  print_newline ();
  Printf.printf "WHIT84-estimated schedule: hot %.4f, cold %.4f\n"
    (Schedule.get schedule 1) (Schedule.get schedule 6);
  print_endline
    "Expected shape (as in [GOLD84]): the dedicated heuristics match or beat SA at this budget."
