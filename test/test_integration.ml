(* Cross-module scenarios: every substrate driven end to end through
   the engines, plus pipelines that chain subsystems the way the
   examples and the CLI do. *)

let case name f = Alcotest.test_case name `Quick f

module Relocate_f1 = Figure1.Make (Linarr_problem.Relocate)
module Tsp_f2 = Figure2.Make (Tsp_problem)
module Arr_rless = Rejectionless.Make (Linarr_problem.Swap)
module Arr_f1 = Figure1.Make (Linarr_problem.Swap)
module Part_f1 = Figure1.Make (Partition_problem)
module Place_f1 = Figure1.Make (Placement.Problem)
module Floor_f2 = Figure2.Make (Floorplan.Problem)
module Wire_f1 = Figure1.Make (Wiring.Problem)
module Tsp_tuner = Tuner.Make (Tsp_problem)

let test_relocate_engine () =
  let rng = Rng.create ~seed:1 in
  let nl = Netlist.random_nola rng ~elements:12 ~nets:60 ~min_pins:2 ~max_pins:4 in
  let arr = Arrangement.random rng nl in
  let initial = Arrangement.density arr in
  let p =
    Relocate_f1.params ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
      ~budget:(Budget.Evaluations 2000) ()
  in
  let r = Relocate_f1.run rng p arr in
  Alcotest.check Alcotest.bool "single exchange reduces density" true
    (int_of_float r.Mc_problem.best_cost < initial);
  Arrangement.check arr;
  Arrangement.check r.Mc_problem.best

let test_figure2_on_tsp () =
  let rng = Rng.create ~seed:2 in
  let inst = Tsp_instance.random_uniform rng ~n:14 in
  let tour = Tour.random rng inst in
  let initial = Tour.length tour in
  let p =
    Tsp_f2.params ~gfun:(Gfun.cohoon_sahni ~m:14)
      ~schedule:(Schedule.constant ~k:1 1.)
      ~budget:(Budget.Evaluations 5000) ()
  in
  let r = Tsp_f2.run rng p tour in
  Alcotest.check Alcotest.bool "descends to 2-opt optimum territory" true
    (r.Mc_problem.best_cost < initial);
  Alcotest.check Alcotest.bool "multiple descents" true
    (r.Mc_problem.stats.Mc_problem.descents >= 1);
  Alcotest.check (Alcotest.float 1e-6) "length cache intact"
    (Tour.recompute_length r.Mc_problem.best)
    (Tour.length r.Mc_problem.best)

let test_rejectionless_on_arrangement () =
  let rng = Rng.create ~seed:3 in
  let nl = Netlist.random_gola rng ~elements:10 ~nets:40 in
  let arr = Arrangement.random rng nl in
  let initial = Arrangement.density arr in
  let p =
    Arr_rless.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.3 |])
      ~budget:(Budget.Evaluations 20_000)
  in
  let r = Arr_rless.run rng p arr in
  Alcotest.check Alcotest.bool "reduces density" true
    (int_of_float r.Mc_problem.best_cost < initial);
  Arrangement.check arr

let test_sa_then_route_pipeline () =
  (* The channel_router example's pipeline: the routed track count must
     equal the optimized density exactly. *)
  let rng = Rng.create ~seed:4 in
  let nl = Netlist.random_nola rng ~elements:12 ~nets:25 ~min_pins:2 ~max_pins:4 in
  let arr = Arrangement.random rng nl in
  let p =
    Arr_f1.params ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
      ~budget:(Budget.Evaluations 3000) ()
  in
  let r = Arr_f1.run rng p arr in
  let best = r.Mc_problem.best in
  let layout = Single_row.assign best in
  Alcotest.check Alcotest.int "tracks = optimized density"
    (int_of_float r.Mc_problem.best_cost)
    layout.Single_row.track_count;
  Alcotest.check Alcotest.bool "layout verifies" true
    (Single_row.verify best layout = Ok ())

let test_sa_then_fm_polish () =
  (* FM as a post-pass can only improve the SA result. *)
  let rng = Rng.create ~seed:5 in
  let nl = Netlist.random_gola rng ~elements:24 ~nets:70 in
  let part = Bipartition.random_balanced rng nl in
  let p =
    Part_f1.params ~gfun:Gfun.six_temp_annealing ~schedule:(Schedule.kirkpatrick ())
      ~budget:(Budget.Evaluations 5000) ()
  in
  let r = Part_f1.run rng p part in
  let polished = Bipartition.copy r.Mc_problem.best in
  ignore (Fm.refine polished);
  Alcotest.check Alcotest.bool "FM polish never hurts" true
    (Bipartition.cut polished <= int_of_float r.Mc_problem.best_cost);
  Bipartition.check polished

let test_goto_seed_plus_sa_placement () =
  let rng = Rng.create ~seed:6 in
  let nl = Netlist.random_nola rng ~elements:24 ~nets:60 ~min_pins:2 ~max_pins:4 in
  let seeded = Placement.goto_seeded ~rows:4 ~cols:6 nl in
  let seeded_hpwl = Placement.hpwl seeded in
  let p =
    Place_f1.params ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
      ~budget:(Budget.Evaluations 6000) ()
  in
  let r = Place_f1.run rng p seeded in
  Alcotest.check Alcotest.bool "SA on a Goto seed never ends worse" true
    (int_of_float r.Mc_problem.best_cost <= seeded_hpwl);
  Placement.check r.Mc_problem.best

let test_figure2_on_floorplan () =
  (* Floorplans have an enumerable neighborhood, so Figure 2's descent
     works on them. *)
  let rng = Rng.create ~seed:7 in
  let dims = Array.init 8 (fun _ -> (Rng.int_range rng 2 8, Rng.int_range rng 2 8)) in
  let f = Floorplan.create dims in
  let initial = Floorplan.area f in
  let p =
    Floor_f2.params ~gfun:Gfun.two_level ~schedule:(Schedule.constant ~k:2 1.)
      ~budget:(Budget.Evaluations 8000) ()
  in
  let r = Floor_f2.run rng p f in
  Alcotest.check Alcotest.bool "area shrinks" true
    (int_of_float r.Mc_problem.best_cost < initial);
  Floorplan.check r.Mc_problem.best

let test_wiring_all_gfuns_finite () =
  (* Sweep the entire catalog over a wiring instance: every class must
     run to completion and return a sane best cost. *)
  let ends = Wiring.random_instance (Rng.create ~seed:8) ~width:5 ~height:5 ~nets:40 in
  List.iter
    (fun gfun ->
      let w = Wiring.create ~width:5 ~height:5 ends in
      let naive = Wiring.cost w in
      let schedule =
        if Gfun.uses_temperature gfun then Schedule.constant ~k:(Gfun.k gfun) 2.
        else Schedule.constant ~k:(Gfun.k gfun) 1.
      in
      let p = Wire_f1.params ~gfun ~schedule ~budget:(Budget.Evaluations 500) () in
      let r = Wire_f1.run (Rng.create ~seed:9) p w in
      Alcotest.check Alcotest.bool
        (Gfun.name gfun ^ " best within [0, naive]")
        true
        (r.Mc_problem.best_cost > 0. && r.Mc_problem.best_cost <= float_of_int naive))
    (Gfun.catalog ~m:40)

let test_tuner_on_tsp () =
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:10) ~n:15 in
  let outcome =
    Tsp_tuner.grid_search (Rng.create ~seed:11) ~gfun:Gfun.metropolis
      ~candidates:[ 0.001; 0.05; 1. ]
      ~budget:(Budget.Evaluations 1500)
      ~instances:[ (fun () -> Tour.random (Rng.create ~seed:12) inst) ]
  in
  Alcotest.check Alcotest.int "three candidates scored" 3
    (List.length outcome.Tsp_tuner.per_candidate);
  Alcotest.check Alcotest.bool "positive reduction found" true
    (outcome.Tsp_tuner.total_reduction > 0.)

let test_traced_over_partition () =
  let module E = Figure1.Make (Partition_problem) in
  let nl = Netlist.random_gola (Rng.create ~seed:13) ~elements:16 ~nets:40 in
  let start = Bipartition.random_balanced (Rng.create ~seed:14) nl in
  let p =
    E.params ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
      ~budget:(Budget.Evaluations 1000) ()
  in
  let rec_ = Obs.Trajectory.create 512 in
  let r =
    E.run ~observer:(Obs.Trajectory.observer rec_) (Rng.create ~seed:15) p start
  in
  Alcotest.check Alcotest.int "1001 evaluations traced" 1001 (Obs.Trajectory.count rec_);
  Alcotest.check (Alcotest.float 1e-9) "trace minimum = engine best"
    r.Mc_problem.best_cost (Obs.Trajectory.minimum rec_)

(* Six independent Figure 1 walks over one arrangement instance, run
   side by side: the paper's equal-budget protocol as [Portfolio.sweep]
   runs it. *)
let arrangement_sweep ~domains =
  let nl = Netlist.random_gola (Rng.create ~seed:20) ~elements:12 ~nets:60 in
  Portfolio.sweep ~domains (Rng.create ~seed:21) ~budget:(Budget.Evaluations 800)
    (List.init 6 (fun i ->
         Portfolio.Job.figure1
           (module Linarr_problem.Swap)
           ~label:(string_of_int i) ~gfun:Gfun.g_one
           ~schedule:(Schedule.constant ~k:1 1.)
           ~make_state:(fun rng -> Arrangement.random rng nl)
           ()))

let test_sweep_on_arrangements_basics () =
  let r = arrangement_sweep ~domains:1 in
  let standings = (List.hd r.Portfolio.rounds).Portfolio.results in
  Alcotest.check Alcotest.int "6 job standings" 6 (List.length standings);
  Alcotest.check Alcotest.int "evaluations add up" (6 * 800) r.Portfolio.total_evaluations;
  let best = List.fold_left (fun acc s -> Float.min acc s.Portfolio.cost) infinity standings in
  Alcotest.check (Alcotest.float 0.) "best is the minimum job" best
    r.Portfolio.winner.Portfolio.cost

let test_sweep_on_arrangements_domain_count_invariant () =
  let json r = Obs.Json.to_string (Portfolio.report_to_json r) in
  let sequential = json (arrangement_sweep ~domains:1) in
  List.iter
    (fun domains ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "report at %d domains = report at 1 domain" domains)
        sequential
        (json (arrangement_sweep ~domains)))
    [ 2; 4 ]

let suite =
  [
    case "sweep over arrangements: basics" test_sweep_on_arrangements_basics;
    case "sweep over arrangements: domain count does not change results"
      test_sweep_on_arrangements_domain_count_invariant;
    case "Figure 1 over the relocate neighborhood" test_relocate_engine;
    case "Figure 2 over TSP" test_figure2_on_tsp;
    case "rejectionless over arrangements" test_rejectionless_on_arrangement;
    case "SA-then-route pipeline" test_sa_then_route_pipeline;
    case "SA-then-FM polish" test_sa_then_fm_polish;
    case "Goto seed + SA placement" test_goto_seed_plus_sa_placement;
    case "Figure 2 over floorplans" test_figure2_on_floorplan;
    case "whole g-catalog drives wiring" test_wiring_all_gfuns_finite;
    case "tuner over TSP" test_tuner_on_tsp;
    case "traced run over partitions" test_traced_over_partition;
  ]
