(* The coupling experiment of sections 4.2.3/4.3: start the Monte Carlo
   search from the Goto arrangement instead of a random one, on a
   multi-pin (NOLA) instance.  Also demonstrates the textual netlist
   format round-trip.

   Run with: dune exec examples/nola_goto.exe *)

let budget = Budget.Evaluations 4_000

let solve name start =
  let gfun = Gfun.g_one in
  let result =
    Engine.or_raise
      (Engine.run (module Linarr_problem.Swap) (Engine.figure1 ()) ~gfun
         ~schedule:(Schedule.constant ~k:1 1.) ~budget (Rng.create ~seed:3) start)
  in
  Printf.printf "  g = 1 from %-14s best density %.0f\n" name result.Mc_problem.best_cost

let () =
  let rng = Rng.create ~seed:2385 in
  let netlist = Netlist.random_nola rng ~elements:15 ~nets:150 ~min_pins:2 ~max_pins:5 in
  (* Round-trip through the on-disk format, as a file-based workflow
     would. *)
  let text = Netlist.to_string netlist in
  let netlist =
    match Netlist.of_string text with
    | Ok nl -> nl
    | Error msg -> failwith msg
  in
  let random_start = Arrangement.random rng netlist in
  let goto_start = Goto.arrange netlist in
  Printf.printf "NOLA instance: %d elements, %d nets (2-5 pins)\n" (Netlist.n_elements netlist)
    (Netlist.n_nets netlist);
  Printf.printf "random start density: %d\n" (Arrangement.density random_start);
  Printf.printf "Goto arrangement density: %d\n\n" (Arrangement.density goto_start);
  solve "random start:" random_start;
  solve "Goto start:" (Arrangement.copy goto_start);
  print_newline ();
  print_endline "Section 4.3.2: starting from Goto, no Monte Carlo method improves much --";
  print_endline "the Goto arrangement is already near-optimal on NOLA instances."
