(* Independent annealing walks side by side, optionally on separate
   OCaml 5 domains: the standard way to spend cores on simulated
   annealing.  [Portfolio.sweep] splits every walk's RNG stream before
   any domain spawns, so its report is byte-identical whatever the
   domain count.

   Run with: dune exec examples/parallel_chains.exe *)

let () =
  let rng = Rng.create ~seed:99 in
  let netlist = Netlist.random_gola rng ~elements:20 ~nets:200 in
  let walks = 8 and evals = 4_000 in
  let jobs =
    List.init walks (fun i ->
        Portfolio.Job.figure1
          (module Linarr_problem.Swap)
          ~label:(Printf.sprintf "walk %d" i) ~gfun:Gfun.six_temp_annealing
          ~schedule:(Schedule.geometric ~y1:2. ~ratio:0.8 ~k:6)
          ~make_state:(fun rng -> Arrangement.random rng netlist)
          ())
  in
  let sweep domains =
    Portfolio.sweep ~domains (Rng.create ~seed:5)
      ~budget:(Budget.Evaluations evals) jobs
  in
  let json r = Obs.Json.to_string (Portfolio.report_to_json r) in
  let domains = min 4 (Domain.recommended_domain_count ()) in
  let r1 = sweep 1 and rn = sweep domains in
  Printf.printf "%d walks x %d evaluations each\n" walks evals;
  List.iter
    (fun (s : Portfolio.standing) -> Printf.printf "  %s: best %.0f\n" s.label s.cost)
    (List.hd r1.Portfolio.rounds).Portfolio.results;
  Printf.printf "best of all walks: %.0f (%s)\n" r1.Portfolio.winner.Portfolio.cost
    r1.Portfolio.winner.Portfolio.label;
  Printf.printf "total evaluations: %d\n" r1.Portfolio.total_evaluations;
  Printf.printf "report at 1 domain = report at %d domains: %b\n" domains
    (json r1 = json rn)
