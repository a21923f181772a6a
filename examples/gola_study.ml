(* A miniature of the paper's core experiment: the two strategies of
   Figures 1 and 2 crossed with a handful of g-function classes on one
   GOLA instance, all at the same budget.  Shows how to use both
   engines, the g-function catalog, and run statistics.

   Run with: dune exec examples/gola_study.exe *)

let budget = Budget.Evaluations 20_000

(* One strategy's walk from a copy of [start], on the same stream. *)
let walk strategy ~gfun ~schedule start =
  Engine.or_raise
    (Engine.run (module Linarr_problem.Swap) strategy ~gfun ~schedule ~budget
       (Rng.create ~seed:11) (Arrangement.copy start))

let () =
  let rng = Rng.create ~seed:1985 in
  let netlist = Netlist.random_gola rng ~elements:15 ~nets:150 in
  let start = Arrangement.random rng netlist in
  Printf.printf "starting density %d, Goto density %d\n\n" (Arrangement.density start)
    (Goto.density netlist);
  Printf.printf "%-26s %-8s %-8s %-10s %-8s\n" "g function" "Fig. 1" "Fig. 2" "descents" "uphill";
  let classes =
    [
      (Gfun.six_temp_annealing, Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6);
      (Gfun.g_one, Schedule.constant ~k:1 1.);
      (Gfun.poly_diff ~k:1 ~degree:3, Schedule.of_array [| 0.3 |]);
      (Gfun.cohoon_sahni ~m:150, Schedule.constant ~k:1 1.);
      (Gfun.two_level, Schedule.constant ~k:2 1.);
    ]
  in
  List.iter
    (fun (gfun, schedule) ->
      let fig1 = walk (Engine.figure1 ()) ~gfun ~schedule start in
      let fig2 = walk Engine.Figure2 ~gfun ~schedule start in
      Printf.printf "%-26s %-8.0f %-8.0f %-10d %-8d\n" (Gfun.name gfun)
        fig1.Mc_problem.best_cost fig2.Mc_problem.best_cost
        fig2.Mc_problem.stats.Mc_problem.descents
        fig2.Mc_problem.stats.Mc_problem.uphill_accepted)
    classes;
  print_newline ();
  print_endline
    "Figure 2 reaches a pairwise-interchange local optimum before every uphill step;";
  print_endline "its 'descents' column counts how many local optima the budget allowed."
