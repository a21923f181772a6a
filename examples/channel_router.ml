(* The EDA payoff of density minimization (section 4.1's motivation):
   once the elements are in a row, every net becomes a horizontal wire
   and the arrangement's density IS the number of routing tracks the
   channel needs.  This example routes the same netlist under three
   arrangements - random, Goto, and g = 1-optimized - and draws the
   channels.

   Run with: dune exec examples/channel_router.exe *)

let route_and_show name arr =
  let layout = Single_row.assign arr in
  (match Single_row.verify arr layout with
  | Ok () -> ()
  | Error msg -> failwith msg);
  Printf.printf "%s: density %d -> %d tracks\n%s\n" name (Arrangement.density arr)
    layout.Single_row.track_count
    (Single_row.render arr layout)

let () =
  let rng = Rng.create ~seed:11 in
  let netlist = Netlist.random_nola rng ~elements:10 ~nets:12 ~min_pins:2 ~max_pins:4 in
  let random_arr = Arrangement.random rng netlist in
  route_and_show "random arrangement" (Arrangement.copy random_arr);
  route_and_show "Goto arrangement" (Goto.arrange netlist);
  let optimized = Arrangement.copy random_arr in
  let result =
    Engine.or_raise
      (Engine.run (module Linarr_problem.Swap) (Engine.figure1 ()) ~gfun:Gfun.g_one
         ~schedule:(Schedule.constant ~k:1 1.) ~budget:(Budget.Evaluations 5_000) rng optimized)
  in
  route_and_show "g = 1 optimized" result.Mc_problem.best
