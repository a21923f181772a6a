(* Circuit partition, the original [KIRK83] showcase, as the paper's
   extension experiment: Kernighan-Lin against simulated annealing with
   Kirkpatrick's literal schedule (Y1 = 10, ratio 0.9, six
   temperatures) and against g = 1, at one budget.

   Run with: dune exec examples/partition_demo.exe *)

let () =
  let rng = Rng.create ~seed:83 in
  let netlist = Netlist.random_gola rng ~elements:60 ~nets:180 in
  let start = Bipartition.random_balanced rng netlist in
  Printf.printf "graph: %d vertices, %d edges; random balanced cut = %d\n\n"
    (Netlist.n_elements netlist) (Netlist.n_nets netlist) (Bipartition.cut start);
  let kl = Bipartition.copy start in
  let passes = Kl.refine kl in
  Printf.printf "%-34s cut %3d  (%d passes)\n" "Kernighan-Lin" (Bipartition.cut kl) passes;
  let budget = Budget.Evaluations 30_000 in
  let run name gfun schedule =
    let result =
      Engine.or_raise
        (Engine.run (module Partition_problem) (Engine.figure1 ()) ~gfun ~schedule ~budget
           (Rng.create ~seed:7) (Bipartition.copy start))
    in
    Printf.printf "%-34s cut %3.0f  (uphill accepted %d)\n" name result.Mc_problem.best_cost
      result.Mc_problem.stats.Mc_problem.uphill_accepted
  in
  run "six-temp annealing [KIRK83 Y's]" Gfun.six_temp_annealing (Schedule.kirkpatrick ());
  run "g = 1" Gfun.g_one (Schedule.constant ~k:1 1.);
  run "Metropolis (Y = 2)" Gfun.metropolis (Schedule.of_array [| 2. |]);
  print_newline ();
  print_endline "Balance is preserved throughout: SA moves swap one element from each side.";
  Printf.printf "final imbalance: %d\n" (Bipartition.imbalance start)
