(* Quickstart: generate a random GOLA instance (the paper's benchmark
   shape: 15 circuit elements, 150 two-pin nets), then minimize its
   density three ways — the Goto constructive heuristic, classical
   six-temperature simulated annealing, and the paper's recommended
   g = 1 rule — under the same evaluation budget.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let rng = Rng.create ~seed:7 in
  let netlist = Netlist.random_gola rng ~elements:15 ~nets:150 in
  let start = Arrangement.random rng netlist in
  Printf.printf "instance: %d elements, %d nets\n" (Netlist.n_elements netlist)
    (Netlist.n_nets netlist);
  Printf.printf "random starting density: %d\n" (Arrangement.density start);
  Printf.printf "Goto heuristic density:  %d\n\n" (Goto.density netlist);
  let budget = Budget.Evaluations 5_000 in
  let run name gfun schedule =
    let state = Arrangement.copy start in
    let result =
      Engine.or_raise
        (Engine.run (module Linarr_problem.Swap) (Engine.figure1 ()) ~gfun ~schedule ~budget
           (Rng.copy rng) state)
    in
    Printf.printf "%-28s best density %2.0f  (accepted %d downhill, %d lateral, %d uphill)\n"
      name result.Mc_problem.best_cost result.Mc_problem.stats.Mc_problem.improving
      result.Mc_problem.stats.Mc_problem.lateral_accepted
      result.Mc_problem.stats.Mc_problem.uphill_accepted
  in
  run "six-temperature annealing" Gfun.six_temp_annealing
    (Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6);
  run "Metropolis (Y = 1)" Gfun.metropolis (Schedule.of_array [| 1. |]);
  run "g = 1 (paper's pick)" Gfun.g_one (Schedule.constant ~k:1 1.)
