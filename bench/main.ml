(* The benchmark harness, in two parts:

   1. Reproduction tables.  Every table of the paper's evaluation
      (4.1, 4.2(a)-(d)) plus the extension tables (E1 TSP, E2 circuit
      partition) and the ablations (A1-A3) is regenerated and printed
      in the paper's row layout.  EXPERIMENTS.md records the
      paper-vs-measured comparison of this output.

   2. Bechamel micro-benchmarks: one Test.make per table (at a
      miniature scale so a sample stays in the millisecond range) plus
      engine/substrate throughput benches.

   Flags: --scale F (budget multiplier for the tables, default 1.0),
   --seed N, --skip-tables, --skip-micro, --wide-tuning, --json PATH.

   Besides the human-readable text on stdout, a machine-readable
   summary (per-table best/mean cost and wall time, engine throughput,
   micro-bench estimates) is written to --json (default
   BENCH_results.json) so the perf trajectory has structured data. *)

let scale = ref 1.0
let seed = ref 42
let skip_tables = ref false
let skip_micro = ref false
let wide_tuning = ref false
let json_path = ref "BENCH_results.json"

let () =
  let specs =
    [
      ( "--scale",
        Arg.Set_float scale,
        "FACTOR  multiply every table budget by FACTOR (default 1.0; smaller = faster, noisier)" );
      ("--seed", Arg.Set_int seed, "N  master random seed (default 42)");
      ("--skip-tables", Arg.Set skip_tables, " skip the reproduction tables");
      ("--skip-micro", Arg.Set skip_micro, " skip the Bechamel micro-benchmarks");
      ( "--wide-tuning",
        Arg.Set wide_tuning,
        " tune temperatures over the wide grid (slower)" );
      ( "--json",
        Arg.Set_string json_path,
        "PATH  write the machine-readable summary to PATH (default BENCH_results.json)" );
    ]
  in
  let usage = "usage: bench [options]\n\noptions:" in
  Arg.parse specs
    (fun arg -> raise (Arg.Bad (Printf.sprintf "unexpected positional argument %S" arg)))
    usage

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')

(* ------------------------------------------------------------------ *)
(* Machine-readable summary accumulation                               *)
(* ------------------------------------------------------------------ *)

let table_summaries = ref ([] : Obs.Json.t list)
let micro_results = ref ([] : Obs.Json.t list)
let delta_results = ref ([] : Obs.Json.t list)
let scaling_results = ref ([] : Obs.Json.t list)
let engine_evals_per_sec = ref 0.
let profile_summary = ref Obs.Json.Null
let lint_summary = ref Obs.Json.Null
let service_summary = ref Obs.Json.Null

(* Per-table roll-up: wall time plus the spread of the numeric cells
   (for the reproduction tables those are costs/densities, so min and
   mean track solution quality release over release). *)
let summarize_table name wall (t : Report.t) =
  let numeric =
    List.concat_map
      (fun (_, cells) ->
        List.filter_map
          (function
            | Report.Int i -> Some (float_of_int i)
            | Report.Float f when Float.is_finite f -> Some f
            | Report.Float _ | Report.Text _ | Report.Missing -> None)
          cells)
      t.Report.rows
  in
  let best, mean =
    match numeric with
    | [] -> (Obs.Json.Null, Obs.Json.Null)
    | xs ->
        let a = Array.of_list xs in
        ( Obs.Json.Float (fst (Stats.min_max a)),
          Obs.Json.Float (Stats.mean a) )
  in
  table_summaries :=
    Obs.Json.Obj
      [
        ("name", Obs.Json.String name);
        ("title", Obs.Json.String t.Report.title);
        ("rows", Obs.Json.Int (List.length t.Report.rows));
        ("wall_seconds", Obs.Json.Float wall);
        ("best_cost", best);
        ("mean_cost", mean);
      ]
    :: !table_summaries

let write_json () =
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "sa-lab/bench-results/v1");
        ("scale", Obs.Json.Float !scale);
        ("seed", Obs.Json.Int !seed);
        ("engine_evals_per_sec", Obs.Json.Float !engine_evals_per_sec);
        ("profile", !profile_summary);
        ("tables_skipped", Obs.Json.Bool !skip_tables);
        ("tables", Obs.Json.List (List.rev !table_summaries));
        ("micro", Obs.Json.List (List.rev !micro_results));
        ("delta", Obs.Json.List (List.rev !delta_results));
        ("scaling", Obs.Json.List (List.rev !scaling_results));
        ("lint", !lint_summary);
        ("service", !service_summary);
      ]
  in
  let oc = open_out !json_path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "[bench] summary written to %s\n" !json_path

(* ------------------------------------------------------------------ *)
(* Part 1: reproduction tables                                         *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  let t0 = Sys.time () in
  section "Reproduction tables (Nahar/Sahni/Shragowitz, DAC 1985)";
  Printf.printf
    "budgets: 1 paper-second = %d proposed perturbations; global scale %.2f; seed %d\n"
    Suites.evals_per_second !scale !seed;
  let config =
    {
      Linarr_tables.default_config with
      scale = !scale;
      seed = !seed;
      wide_tuning = !wide_tuning;
    }
  in
  prerr_endline "[bench] tuning temperatures (section 4.2.1 protocol)...";
  let ctx = Linarr_tables.make_context ~config () in
  let emit_keep name f =
    prerr_endline ("[bench] " ^ name ^ "...");
    print_newline ();
    let t0 = Obs.now () in
    let table = f () in
    summarize_table name (Obs.now () -. t0) table;
    print_string (Report.render table);
    table
  in
  let emit name f = ignore (emit_keep name f) in
  emit "tuning table" (fun () -> Linarr_tables.tuning_table ctx);
  let measured_4_1 = emit_keep "table 4.1" (fun () -> Linarr_tables.table_4_1 ctx) in
  emit "agreement with the paper" (fun () ->
      Paper_data.agreement_table ctx ~measured:measured_4_1);
  emit "table 4.2(a)" (fun () -> Linarr_tables.table_4_2a ctx);
  emit "table 4.2(b)" (fun () -> Linarr_tables.table_4_2b ctx);
  emit "table 4.2(c)" (fun () -> Linarr_tables.table_4_2c ctx);
  emit "table 4.2(d)" (fun () -> Linarr_tables.table_4_2d ctx);
  emit "table E1 (TSP)" (fun () -> Ext_tables.table_tsp ~seed:!seed ~scale:!scale ());
  emit "table E2 (partition)" (fun () ->
      Ext_tables.table_partition ~seed:!seed ~scale:!scale ());
  emit "table E3 (placement)" (fun () ->
      Ext_tables.table_placement ~seed:!seed ~scale:!scale ());
  emit "table E5 (global wiring)" (fun () ->
      Ext_tables.table_wiring ~seed:!seed ~scale:!scale ());
  emit "table E6 (floorplanning)" (fun () ->
      Ext_tables.table_floorplan ~seed:!seed ~scale:!scale ());
  emit "table S1 (scaling)" (fun () -> Ext_tables.table_scaling ~seed:!seed ~scale:!scale ());
  emit "table E4 (convergence to optimum)" (fun () ->
      Ext_tables.table_convergence ~seed:!seed ~scale:!scale ());
  emit "table A8 (run-to-run variance)" (fun () ->
      Ext_tables.table_variance ~seed:!seed ~scale:!scale ());
  emit "table A1 (schedule sensitivity)" (fun () ->
      Ablation_tables.table_schedule_sensitivity ctx);
  emit "table A2 (defer threshold)" (fun () -> Ablation_tables.table_defer_threshold ctx);
  emit "table A3 (rejectionless)" (fun () -> Ablation_tables.table_rejectionless ctx);
  emit "table A4 (schedule shapes)" (fun () -> Ablation_tables.table_schedule_shapes ctx);
  emit "table A5 (temperature control)" (fun () ->
      Ablation_tables.table_temperature_control ctx);
  emit "table A6 (neighborhood)" (fun () -> Ablation_tables.table_neighborhood ctx);
  emit "table A7 (objective surrogate)" (fun () ->
      Ablation_tables.table_objective_surrogate ctx);
  emit "table A9 (tuning-grid resolution)" (fun () ->
      Ablation_tables.table_tuning_grid ctx);
  emit "table E7 (quadratic assignment)" (fun () ->
      Ext_tables.table_qap ~seed:!seed ~scale:!scale ());
  Printf.printf "\n[tables regenerated in %.1f s CPU]\n" (Sys.time () -. t0)

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

module F1 = Figure1.Make (Linarr_problem.Swap)
module F2 = Figure2.Make (Linarr_problem.Swap)
module TspF1 = Figure1.Make (Tsp_problem)

(* Fixed workloads for the micro-benches, built once. *)
let bench_netlist = Netlist.random_gola (Rng.create ~seed:1) ~elements:15 ~nets:150
let bench_start = Arrangement.random (Rng.create ~seed:2) bench_netlist
let bench_tsp = Tsp_instance.random_uniform (Rng.create ~seed:3) ~n:60
let bench_tour = Tour.random (Rng.create ~seed:4) bench_tsp
let bench_graph = Netlist.random_gola (Rng.create ~seed:5) ~elements:60 ~nets:180

let run_f1 gfun schedule evals () =
  let state = Arrangement.copy bench_start in
  let p = F1.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) () in
  (F1.run (Rng.create ~seed:6) p state).Mc_problem.best_cost

(* Same walk with a live observer, to price the instrumentation
   against the null-observer run above. *)
let run_f1_observed make_observer gfun schedule evals () =
  let state = Arrangement.copy bench_start in
  let p = F1.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) () in
  (F1.run ~observer:(make_observer ()) (Rng.create ~seed:6) p state)
    .Mc_problem.best_cost

let engine_tests =
  Test.make_grouped ~name:"engine"
    [
      Test.make ~name:"figure1/six-temp-annealing (1k evals)"
        (Staged.stage
           (run_f1 Gfun.six_temp_annealing (Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6) 1000));
      Test.make ~name:"figure1/six-temp +ring-observer (1k evals)"
        (Staged.stage
           (run_f1_observed
              (fun () -> Obs.Ring.observer (Obs.Ring.create 1024))
              Gfun.six_temp_annealing
              (Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6)
              1000));
      Test.make ~name:"figure1/six-temp +metrics-observer (1k evals)"
        (Staged.stage
           (run_f1_observed
              (fun () -> Obs.Metrics.observer (Obs.Metrics.create ()))
              Gfun.six_temp_annealing
              (Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6)
              1000));
      Test.make ~name:"figure1/g=1 (1k evals)"
        (Staged.stage (run_f1 Gfun.g_one (Schedule.constant ~k:1 1.) 1000));
      Test.make ~name:"figure1/cubic-diff (1k evals)"
        (Staged.stage (run_f1 (Gfun.poly_diff ~degree:3) (Schedule.of_array [| 0.3 |]) 1000));
      Test.make ~name:"figure2/g=1 (1k evals)"
        (Staged.stage (fun () ->
             let state = Arrangement.copy bench_start in
             let p =
               F2.params ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
                 ~budget:(Budget.Evaluations 1000) ()
             in
             (F2.run (Rng.create ~seed:7) p state).Mc_problem.best_cost));
      Test.make ~name:"tsp-figure1/metropolis (1k evals)"
        (Staged.stage (fun () ->
             let t = Tour.copy bench_tour in
             let p =
               TspF1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.3 |])
                 ~budget:(Budget.Evaluations 1000) ()
             in
             (TspF1.run (Rng.create ~seed:8) p t).Mc_problem.best_cost));
    ]

let substrate_tests =
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"arrangement/swap+revert"
        (Staged.stage
           (let arr = Arrangement.copy bench_start in
            fun () ->
              Arrangement.swap_positions arr 3 11;
              Arrangement.swap_positions arr 3 11));
      Test.make ~name:"goto/15x150" (Staged.stage (fun () -> Goto.order bench_netlist));
      Test.make ~name:"kl/refine-60x180"
        (Staged.stage (fun () ->
             let part = Bipartition.random_balanced (Rng.create ~seed:9) bench_graph in
             Kl.refine part));
      Test.make ~name:"tsp/2-opt-descent-60"
        (Staged.stage (fun () ->
             let t = Tour.copy bench_tour in
             Tsp_heuristics.two_opt_descent t));
      Test.make ~name:"tsp/hull-insertion-60"
        (Staged.stage (fun () -> Tsp_heuristics.hull_insertion bench_tsp));
      Test.make ~name:"fm/refine-60x180"
        (Staged.stage (fun () ->
             let part = Bipartition.random_balanced (Rng.create ~seed:10) bench_graph in
             Fm.refine part));
      Test.make ~name:"placement/swap+revert"
        (Staged.stage
           (let p =
              Placement.random (Rng.create ~seed:11) ~rows:6 ~cols:8
                (Netlist.random_nola (Rng.create ~seed:12) ~elements:48 ~nets:120
                   ~min_pins:2 ~max_pins:4)
            in
            fun () ->
              Placement.swap_slots p 3 30;
              Placement.swap_slots p 3 30));
      Test.make ~name:"wiring/flip+revert"
        (Staged.stage
           (let w =
              Wiring.create ~width:10 ~height:10
                (Wiring.random_instance (Rng.create ~seed:13) ~width:10 ~height:10
                   ~nets:150)
            in
            fun () ->
              Wiring.flip w 7;
              Wiring.flip w 7));
      Test.make ~name:"floorplan/move+revert (20 blocks)"
        (Staged.stage
           (let f =
              Floorplan.create
                (Array.init 20 (fun i -> ((i mod 9) + 2, ((i * 3) mod 9) + 2)))
            in
            fun () ->
              Floorplan.apply f (Floorplan.Rotate 4);
              Floorplan.apply f (Floorplan.Rotate 4)));
      Test.make ~name:"exact/brute-force-8x32"
        (Staged.stage
           (let nl = Netlist.random_gola (Rng.create ~seed:14) ~elements:8 ~nets:32 in
            fun () -> Linarr_exact.optimal_density nl));
      Test.make ~name:"route/left-edge-15x150"
        (Staged.stage
           (let arr = Arrangement.copy bench_start in
            fun () -> Single_row.assign arr));
    ]

(* One Test.make per reproduction table, at a miniature scale: each
   sample regenerates the table end to end (runs + rendering), so the
   estimate tracks the whole pipeline's cost. *)
let mini_ctx =
  let mini_config =
    {
      Linarr_tables.scale = 0.004;
      three_min_scale = 0.004;
      tuning_seconds = 0.5;
      wide_tuning = false;
      seed = 3;
    }
  in
  lazy (Linarr_tables.make_context ~config:mini_config ())

let table_tests =
  let table name f = Test.make ~name (Staged.stage (fun () -> f (Lazy.force mini_ctx))) in
  Test.make_grouped ~name:"table"
    [
      table "4.1" Linarr_tables.table_4_1;
      table "4.2a" Linarr_tables.table_4_2a;
      table "4.2b" Linarr_tables.table_4_2b;
      table "4.2c" Linarr_tables.table_4_2c;
      table "4.2d" Linarr_tables.table_4_2d;
      Test.make ~name:"E1-tsp"
        (Staged.stage (fun () ->
             Ext_tables.table_tsp ~seed:3 ~scale:0.004 ~instances:2 ~cities:20 ()));
      Test.make ~name:"E2-partition"
        (Staged.stage (fun () ->
             Ext_tables.table_partition ~seed:3 ~scale:0.004 ~instances:2 ~elements:24
               ~edges:60 ()));
      table "A1-schedule" Ablation_tables.table_schedule_sensitivity;
      table "A2-defer" Ablation_tables.table_defer_threshold;
      table "A3-rejectionless" Ablation_tables.table_rejectionless;
      table "A4-shapes" Ablation_tables.table_schedule_shapes;
      table "A5-temp-control" Ablation_tables.table_temperature_control;
      table "A6-neighborhood" Ablation_tables.table_neighborhood;
      table "A7-objective" Ablation_tables.table_objective_surrogate;
    ]

let run_micro () =
  section "Bechamel micro-benchmarks";
  (* Build the miniature context (tuning + Goto caches) outside the
     measured region so the first table sample is not an outlier. *)
  ignore (Sys.opaque_identity (Lazy.force mini_ctx));
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let groups = [ engine_tests; substrate_tests; table_tests ] in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg instances group in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) results []) in
      List.iter
        (fun name ->
          let ols_result = Hashtbl.find results name in
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols_result) in
          Printf.printf "%-48s %14.0f ns/run   r2 %.3f\n" name estimate r2;
          micro_results :=
            Obs.Json.Obj
              [
                ("name", Obs.Json.String name);
                ("ns_per_run", Obs.Json.Float estimate);
                ("r_square", Obs.Json.Float r2);
              ]
            :: !micro_results)
        names)
    groups

(* ------------------------------------------------------------------ *)
(* Delta fast path vs full recompute                                   *)
(* ------------------------------------------------------------------ *)

(* Each comparison times the same walk twice — once on the classical
   apply/cost/revert path, once on the [delta_ops] fast path — from
   identical start states and identical RNG streams, then records both
   step rates and whether the two final costs agree bit-for-bit (they
   must: the adapters' deltas are exact for the integer domains and
   match the cached-length arithmetic for TSP).  Fixed evaluation
   budgets, independent of --scale, so the ratios are comparable run
   to run. *)

let record_delta ~domain ~evals ~recompute_seconds ~delta_seconds ~costs_agree =
  let rate s = float_of_int evals /. s in
  let speedup = recompute_seconds /. delta_seconds in
  Printf.printf
    "%-28s %7d evals   recompute %11.0f evals/s   delta %11.0f evals/s   speedup %6.2fx   costs agree: %b\n"
    domain evals (rate recompute_seconds) (rate delta_seconds) speedup
    costs_agree;
  delta_results :=
    Obs.Json.Obj
      [
        ("domain", Obs.Json.String domain);
        ("evals", Obs.Json.Int evals);
        ("recompute_evals_per_sec", Obs.Json.Float (rate recompute_seconds));
        ("delta_evals_per_sec", Obs.Json.Float (rate delta_seconds));
        ("speedup", Obs.Json.Float speedup);
        ("costs_agree", Obs.Json.Bool costs_agree);
      ]
    :: !delta_results

module Delta_cmp (P : Mc_problem.S) = struct
  module E1 = Figure1.Make (P)
  module E2 = Figure2.Make (P)
  module ER = Rejectionless.Make (P)

  let agree a b = Int64.bits_of_float a = Int64.bits_of_float b

  let timed f =
    let t0 = Obs.now () in
    let r = f () in
    (Obs.now () -. t0, r.Mc_problem.final_cost)

  let figure1 ~domain ~evals ~gfun ~schedule ~seed ~delta_ops ~make_state =
    let p = E1.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) () in
    let go d = timed (fun () -> E1.run ?delta_ops:d (Rng.create ~seed) p (make_state ())) in
    ignore (go None);
    (* warm caches *)
    let slow_t, slow_c = go None in
    let fast_t, fast_c = go (Some delta_ops) in
    record_delta ~domain ~evals ~recompute_seconds:slow_t ~delta_seconds:fast_t
      ~costs_agree:(agree slow_c fast_c)

  let figure2 ~domain ~evals ~gfun ~schedule ~seed ~delta_ops ~make_state =
    let p = E2.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) () in
    let go d = timed (fun () -> E2.run ?delta_ops:d (Rng.create ~seed) p (make_state ())) in
    let slow_t, slow_c = go None in
    let fast_t, fast_c = go (Some delta_ops) in
    record_delta ~domain ~evals ~recompute_seconds:slow_t ~delta_seconds:fast_t
      ~costs_agree:(agree slow_c fast_c)

  let rejectionless ?sweep_cache ~domain ~evals ~gfun ~schedule ~seed ~delta_ops
      ~make_state () =
    let p = ER.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) in
    let go d =
      timed (fun () ->
          ER.run ?delta_ops:d ?sweep_cache (Rng.create ~seed) p (make_state ()))
    in
    let slow_t, slow_c = go None in
    let fast_t, fast_c = go (Some delta_ops) in
    record_delta ~domain ~evals ~recompute_seconds:slow_t ~delta_seconds:fast_t
      ~costs_agree:(agree slow_c fast_c)
end

module Tsp_cmp = Delta_cmp (Tsp_problem)
module Oropt_cmp = Delta_cmp (Tsp_problem.Or_opt)
module Qap_cmp = Delta_cmp (Qap.Problem)
module Part_cmp = Delta_cmp (Partition_problem)
module Place_cmp = Delta_cmp (Placement.Problem)
module Linarr_swap_cmp = Delta_cmp (Linarr_problem.Swap)
module Linarr_reloc_cmp = Delta_cmp (Linarr_problem.Relocate)

let run_delta_comparison () =
  section "Delta fast path vs full recompute";
  (* A local optimum at low temperature is the fast path's home turf:
     nearly every proposal is rejected, and a rejection costs a
     delta-formula evaluation instead of apply + cost + revert. *)
  let tsp600 = Tsp_instance.random_uniform (Rng.create ~seed:30) ~n:600 in
  let tsp_start = Tsp_heuristics.nearest_neighbor tsp600 ~start:0 in
  let tsp3000 = Tsp_instance.random_uniform (Rng.create ~seed:44) ~n:3000 in
  (* Nearest-neighbor start, then a cheap greedy burn-in over the same
     proposal distribution the walks use: the measured region then sees
     mostly rejections, which is where the two paths differ. *)
  let tsp3000_start =
    let t = Tsp_heuristics.nearest_neighbor tsp3000 ~start:0 in
    let rng = Rng.create ~seed:45 in
    for _ = 1 to 500_000 do
      let i, j = Tsp_problem.random_move rng t in
      if Tour.two_opt_delta t i j < 0. then Tour.two_opt t i j
    done;
    t
  in
  let cold = Schedule.of_array [| 0.01 |] in
  Tsp_cmp.figure1 ~domain:"tsp-2opt-n3000-figure1" ~evals:30_000
    ~gfun:Gfun.metropolis ~schedule:cold ~seed:32
    ~delta_ops:Tsp_problem.delta_ops
    ~make_state:(fun () -> Tour.copy tsp3000_start);
  Oropt_cmp.figure1 ~domain:"tsp-oropt-n600-figure1" ~evals:30_000
    ~gfun:Gfun.metropolis ~schedule:cold ~seed:33
    ~delta_ops:Tsp_problem.Or_opt.delta_ops
    ~make_state:(fun () -> Tour.copy tsp_start);
  Tsp_cmp.figure2 ~domain:"tsp-2opt-n600-figure2" ~evals:30_000
    ~gfun:Gfun.metropolis ~schedule:cold ~seed:34
    ~delta_ops:Tsp_problem.delta_ops
    ~make_state:(fun () -> Tour.copy tsp_start);
  (* The weakest PR-4 row: a rejectionless sweep prices the whole
     neighborhood per step, so the delta path alone only won 1.4x.  The
     sweep cache re-prices just the moves the committed step affects,
     which needs the budget to cover several full sweeps (the 2-opt
     neighborhood at n=600 is ~180k moves) before reuse can show up. *)
  Tsp_cmp.rejectionless ~sweep_cache:Tsp_problem.sweep_cache
    ~domain:"tsp-2opt-n600-rejectionless" ~evals:1_800_000 ~gfun:Gfun.metropolis
    ~schedule:cold ~seed:35 ~delta_ops:Tsp_problem.delta_ops
    ~make_state:(fun () -> Tour.copy tsp_start)
    ();
  let qap = Qap.random_instance (Rng.create ~seed:36) ~n:64 ~max_entry:10 in
  Qap_cmp.figure1 ~domain:"qap-n64-figure1" ~evals:20_000 ~gfun:Gfun.metropolis
    ~schedule:(Schedule.of_array [| 20. |])
    ~seed:37 ~delta_ops:Qap.Problem.delta_ops
    ~make_state:(fun () -> Qap.copy qap);
  let part_nl = Netlist.random_gola (Rng.create ~seed:38) ~elements:200 ~nets:600 in
  let part_start = Bipartition.random_balanced (Rng.create ~seed:39) part_nl in
  Part_cmp.figure1 ~domain:"partition-200x600-figure1" ~evals:20_000
    ~gfun:Gfun.metropolis
    ~schedule:(Schedule.of_array [| 0.5 |])
    ~seed:40 ~delta_ops:Partition_problem.delta_ops
    ~make_state:(fun () -> Bipartition.copy part_start);
  let place_nl =
    Netlist.random_nola (Rng.create ~seed:41) ~elements:200 ~nets:500 ~min_pins:2
      ~max_pins:4
  in
  let place_start =
    Placement.random (Rng.create ~seed:42) ~rows:16 ~cols:16 place_nl
  in
  Place_cmp.figure1 ~domain:"placement-200-figure1" ~evals:20_000
    ~gfun:Gfun.metropolis
    ~schedule:(Schedule.of_array [| 0.5 |])
    ~seed:43 ~delta_ops:Placement.Problem.delta_ops
    ~make_state:(fun () -> Placement.copy place_start);
  (* Linarr — the paper's own benchmark.  The swap case runs a NOLA
     multi-pin instance (the paper's Table 4.2 family) from a greedy
     local optimum, so the measured region is lateral/rejection heavy.
     Both paths price through the same window kernel (a swap or
     relocate sweeps only the positions between its ends), and a revert
     replays the inverse trial the apply left pending, so both pay one
     kernel call per move; the recompute baseline adds only the replays
     of each rejected move and its revert.
     The relocate budget is small because each move's window spans a
     third of the instance on average. *)
  let nola600 =
    Netlist.random_nola (Rng.create ~seed:46) ~elements:600 ~nets:1500
      ~min_pins:3 ~max_pins:6
  in
  let nola_start =
    let t = Arrangement.random (Rng.create ~seed:47) nola600 in
    let rng = Rng.create ~seed:53 in
    for _ = 1 to 50_000 do
      let p, q = Rng.pair_distinct rng (Arrangement.size t) in
      let dd, _ = Arrangement.swap_delta t p q in
      if dd < 0 then Arrangement.swap_positions t p q
    done;
    t
  in
  Linarr_swap_cmp.figure1 ~domain:"linarr-swap-n600-figure1" ~evals:20_000
    ~gfun:Gfun.metropolis ~schedule:cold ~seed:48
    ~delta_ops:Linarr_problem.Swap.delta_ops
    ~make_state:(fun () -> Arrangement.copy nola_start);
  let gola500 =
    Netlist.random_gola (Rng.create ~seed:49) ~elements:500 ~nets:1500
  in
  let gola_start = Arrangement.random (Rng.create ~seed:51) gola500 in
  Linarr_reloc_cmp.figure1 ~domain:"linarr-relocate-n500-figure1" ~evals:2_000
    ~gfun:Gfun.metropolis ~schedule:cold ~seed:52
    ~delta_ops:Linarr_problem.Relocate.delta_ops
    ~make_state:(fun () -> Arrangement.copy gola_start)

(* ------------------------------------------------------------------ *)
(* Portfolio domain scaling                                            *)
(* ------------------------------------------------------------------ *)

(* The same 21-class racing portfolio timed at 1, 2, 4, and 8 worker
   domains.  Two things are recorded per domain count: the measured
   wall-clock speedup over the 1-domain run, and whether the report
   JSON is byte-identical to the 1-domain report — the determinism
   contract the portfolio scheduler makes.  Fixed budgets, independent
   of --scale, so the numbers are comparable run to run.  The speedups
   are whatever the hardware gives: on a single-CPU container every
   domain count measures ~1x (or less, from domain overhead); the
   byte-identity column must hold everywhere. *)

let run_portfolio_scaling () =
  section "Portfolio domain scaling (21-class race, TSP n=1000)";
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:50) ~n:1000 in
  let jobs =
    List.map
      (fun gfun ->
        Portfolio.Job.figure1
          (module Tsp_problem)
          ~delta_ops:Tsp_problem.delta_ops ~label:(Gfun.name gfun) ~gfun
          ~schedule:(Runner.schedule_for gfun 1.0)
          ~make_state:(fun rng -> Tour.random rng inst)
          ())
      (Gfun.catalog ~m:1000)
  in
  let race domains =
    let t0 = Obs.now () in
    let report =
      Portfolio.race ~domains (Rng.create ~seed:51)
        ~initial_budget:(Budget.Evaluations 2_000) jobs
    in
    (Obs.now () -. t0, Obs.Json.to_string (Portfolio.report_to_json report))
  in
  ignore (race 1);
  (* warm caches *)
  let base_wall, base_json = race 1 in
  List.iter
    (fun domains ->
      let wall, json = if domains = 1 then (base_wall, base_json) else race domains in
      let speedup = base_wall /. wall in
      let identical = String.equal json base_json in
      Printf.printf
        "domains %d: %.3f s wall   speedup %5.2fx   report identical: %b\n"
        domains wall speedup identical;
      scaling_results :=
        Obs.Json.Obj
          [
            ("case", Obs.Json.String "portfolio-race-tsp1000");
            ("domains", Obs.Json.Int domains);
            ("wall_seconds", Obs.Json.Float wall);
            ("speedup", Obs.Json.Float speedup);
            ("report_identical", Obs.Json.Bool identical);
          ]
        :: !scaling_results)
    [ 1; 2; 4; 8 ]

(* One timed null-observer engine run, long enough for a stable
   evaluations/sec figure; this is the headline throughput number of
   the JSON summary. *)
let measure_throughput () =
  section "Engine throughput";
  let evals = 100_000 in
  let state = Arrangement.copy bench_start in
  let p =
    F1.params ~gfun:Gfun.six_temp_annealing
      ~schedule:(Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6)
      ~budget:(Budget.Evaluations evals) ()
  in
  let t0 = Obs.now () in
  let r = F1.run (Rng.create ~seed:20) p state in
  let dt = Obs.now () -. t0 in
  let done_evals = r.Mc_problem.stats.Mc_problem.evaluations in
  engine_evals_per_sec := float_of_int done_evals /. dt;
  Printf.printf
    "figure1/six-temp-annealing, %d evaluations, null observer: %.4g evals/sec (%.3f s wall)\n"
    done_evals !engine_evals_per_sec dt

(* The same walk under the sampling profiler.  Sampling is keyed to
   the evaluation counter, so under this fixed seed the sample count
   is exactly evals / cadence and the per-span split is reproducible
   run over run; check_json verifies that arithmetic on the summary
   embedded in the JSON. *)
let run_profile () =
  section "Sampling profiler";
  let evals = 20_000 in
  let state = Arrangement.copy bench_start in
  let p =
    F1.params ~gfun:Gfun.six_temp_annealing
      ~schedule:(Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6)
      ~budget:(Budget.Evaluations evals) ()
  in
  let prof = Telemetry_profile.create () in
  ignore (F1.run ~observer:(Telemetry_profile.observer prof) (Rng.create ~seed:21) p state);
  Printf.printf
    "figure1/six-temp-annealing, %d evaluations: %d samples (cadence %d)\n"
    evals (Telemetry_profile.samples prof) (Telemetry_profile.cadence prof);
  List.iter
    (fun (span, self) -> Printf.printf "  %-24s %6d self samples\n" span self)
    (Telemetry_profile.self_by_span prof);
  profile_summary := Telemetry_profile.summary prof

(* ------------------------------------------------------------------ *)
(* Lint engine: incremental cache                                      *)
(* ------------------------------------------------------------------ *)

(* The syntactic lint pass over a synthetic source tree, once with an
   empty cache and once again with the cache it just filled.  The warm
   run must re-analyze zero files and return the same findings; the
   cold/warm wall-time pair is the headline number for the cache. *)
let run_lint_bench () =
  section "Lint cache (cold vs warm)";
  let files = 60 in
  let dir = Filename.temp_dir "sa_lint_bench" "" in
  let src = Filename.concat dir "src" in
  Sys.mkdir src 0o755;
  for i = 0 to files - 1 do
    let oc = open_out (Filename.concat src (Printf.sprintf "m%02d.ml" i)) in
    Printf.fprintf oc "let base = %d\n" i;
    for j = 0 to 40 do
      Printf.fprintf oc "let f%d x = x + base + %d\n" j j
    done;
    (* Every file carries one suppressed coercion (so directive parsing
       is on the timed path); every seventh also carries a live one. *)
    output_string oc
      "(* sa-lint: allow no-obj-magic *)\nlet id (x : int) : int = Obj.magic x\n";
    if i mod 7 = 0 then
      output_string oc "let unsafe (x : int) : float = Obj.magic x\n";
    close_out oc
  done;
  let rules = Lint_rules.builtin () in
  let cache =
    Lint_cache.create ~dir:(Filename.concat dir "cache") ~version:"bench"
  in
  let timed () =
    let t0 = Obs.now () in
    let report = Lint.run ~rules ~cache ~root:dir [ "src" ] in
    (Obs.now () -. t0, report)
  in
  let cold_s, cold = timed () in
  let warm_s, warm = timed () in
  let rec rm_rf p =
    if Sys.is_directory p then (
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p)
    else Sys.remove p
  in
  rm_rf dir;
  let speedup = cold_s /. Float.max warm_s 1e-9 in
  Printf.printf
    "%d files: cold %.4f s (%d analyzed), warm %.4f s (%d analyzed), %.1fx\n"
    cold.Lint.files_scanned cold_s cold.Lint.files_reanalyzed warm_s
    warm.Lint.files_reanalyzed speedup;
  if warm.Lint.files_reanalyzed <> 0 then
    failwith "lint bench: warm run re-analyzed files";
  if
    List.length warm.Lint.diagnostics <> List.length cold.Lint.diagnostics
    || warm.Lint.suppressions <> cold.Lint.suppressions
  then failwith "lint bench: warm run disagrees with cold run";
  lint_summary :=
    Obs.Json.Obj
      [
        ("files", Obs.Json.Int cold.Lint.files_scanned);
        ("findings", Obs.Json.Int (List.length cold.Lint.diagnostics));
        ("cold_seconds", Obs.Json.Float cold_s);
        ("warm_seconds", Obs.Json.Float warm_s);
        ("cold_reanalyzed", Obs.Json.Int cold.Lint.files_reanalyzed);
        ("warm_reanalyzed", Obs.Json.Int warm.Lint.files_reanalyzed);
        ("speedup", Obs.Json.Float speedup);
      ]

(* ------------------------------------------------------------------ *)
(* sa_labd: concurrent load and crash-resume                           *)
(* ------------------------------------------------------------------ *)

let rm_rf_dir p =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists p then go p

(* Phase A: the job daemon under a storm of small jobs over real
   sockets — client threads submit, poll to completion, and record
   submit-to-complete latency; a deliberately greedy client proves the
   quota rejects.  Phase B: a long job is drained mid-walk and a fresh
   service over the same state directory resumes it.  The summary
   (p50/p99 latency, rejected, resumed) lands in the JSON for
   check_json. *)
let run_service_bench () =
  section "Job service (sa_labd core)";
  let jobs_target = max 40 (int_of_float (1000. *. !scale)) in
  let dir = Filename.temp_dir "sa_service_bench" "" in
  let cfg =
    {
      (Service.default_config ~dir) with
      max_queue = jobs_target + 64;
      runners = 4;
      quota_burst = 16;
      quota_refill = 200.;
    }
  in
  (* The quota clock stands still during the storm below, so no bucket
     refills between its posts however slow the host is; it runs again
     before the load phase. *)
  let frozen_at = Atomic.make (Some (Unix.gettimeofday ())) in
  let quota_now () =
    match Atomic.get frozen_at with Some t -> t | None -> Unix.gettimeofday ()
  in
  let svc = Service.create ~quota_now cfg in
  let server = Telemetry_http.start_routed ~handler:(Service.handle svc) () in
  let port = Telemetry_http.port server in
  (* Quota storm: one client posts a burst plus 8, so exactly 8 bounce
     with 429. *)
  let storm_excess = 8 in
  let spec_body seed =
    Printf.sprintf
      {|{"problem":"tsp","cities":12,"budget":300,"seed":%d,"gfun":"Metropolis"}|}
      seed
  in
  for i = 1 to cfg.quota_burst + storm_excess do
    ignore
      (Telemetry_http.request ~meth:"POST" ~port
         ~headers:[ ("x-client", "greedy") ]
         ~body:(spec_body i) "/jobs")
  done;
  Atomic.set frozen_at None;
  (* Load storm: client threads submit and poll to completion. *)
  let client_threads = 8 in
  let per_thread = (jobs_target + client_threads - 1) / client_threads in
  let latencies = Array.make_matrix client_threads per_thread nan in
  let submit_one ~client seed =
    let rec go () =
      match
        Telemetry_http.request ~meth:"POST" ~port
          ~headers:[ ("x-client", client) ]
          ~body:(spec_body seed) "/jobs"
      with
      | Ok (202, _, body) -> (
          match Obs.Json.parse body with
          | Ok json -> (
              match Obs.Json.member "id" json with
              | Some (Obs.Json.Int id) -> id
              | _ -> failwith "service bench: 202 without an id")
          | Error e -> failwith ("service bench: bad 202 body: " ^ e))
      | Ok ((429 | 503), _, _) ->
          Thread.delay 0.01;
          go ()
      | Ok (status, _, body) ->
          failwith
            (Printf.sprintf "service bench: POST /jobs -> %d %s" status body)
      | Error e -> failwith ("service bench: POST /jobs: " ^ e)
    in
    go ()
  in
  let await_done id =
    let rec go () =
      match Telemetry_http.get ~port (Printf.sprintf "/jobs/%d" id) with
      | Ok (200, body) ->
          let terminal =
            match Obs.Json.parse body with
            | Ok json -> (
                match Obs.Json.member "status" json with
                | Some (Obs.Json.String ("done" | "failed" | "cancelled")) ->
                    true
                | _ -> false)
            | Error _ -> false
          in
          if not terminal then begin
            Thread.delay 0.002;
            go ()
          end
      | Ok (status, body) ->
          failwith (Printf.sprintf "service bench: GET job -> %d %s" status body)
      | Error e -> failwith ("service bench: GET job: " ^ e)
    in
    go ()
  in
  let worker w =
    let client = Printf.sprintf "client-%d" w in
    for i = 0 to per_thread - 1 do
      let t0 = Obs.now () in
      let id = submit_one ~client ((w * per_thread) + i) in
      await_done id;
      latencies.(w).(i) <- (Obs.now () -. t0) *. 1000.
    done
  in
  let t0 = Obs.now () in
  let threads = List.init client_threads (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  let wall = Obs.now () -. t0 in
  let all =
    Array.to_list latencies |> Array.concat |> Array.to_seq
    |> Seq.filter Float.is_finite |> Array.of_seq
  in
  Array.sort compare all;
  let percentile p =
    let n = Array.length all in
    all.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let p50 = percentile 0.50 and p99 = percentile 0.99 in
  let _, _, rejected_quota, rejected_queue, _ = Service.counters svc in
  Service.drain svc;
  Telemetry_http.stop server;
  rm_rf_dir dir;
  if rejected_quota < storm_excess then
    failwith
      (Printf.sprintf "service bench: the quota storm bounced %d posts, not %d"
         rejected_quota storm_excess);
  (* Phase B: drain a long walk mid-flight, then resume it in a fresh
     service over the same directory and let it finish. *)
  let dir2 = Filename.temp_dir "sa_service_resume" "" in
  let cfg2 =
    {
      (Service.default_config ~dir:dir2) with
      runners = 1;
      checkpoint_every = 2_000;
    }
  in
  let svc2 = Service.create cfg2 in
  let server2 = Telemetry_http.start_routed ~handler:(Service.handle svc2) () in
  let port2 = Telemetry_http.port server2 in
  let long_id =
    match
      Telemetry_http.request ~meth:"POST" ~port:port2
        ~body:
          {|{"problem":"tsp","cities":60,"budget":4000000,"seed":17,"gfun":"Metropolis"}|}
        "/jobs"
    with
    | Ok (202, _, body) -> (
        match Obs.Json.parse body with
        | Ok json -> (
            match Obs.Json.member "id" json with
            | Some (Obs.Json.Int id) -> id
            | _ -> failwith "service bench: resume POST lost its id")
        | Error e -> failwith ("service bench: resume POST: " ^ e))
    | Ok (status, _, body) ->
        failwith (Printf.sprintf "service bench: resume POST -> %d %s" status body)
    | Error e -> failwith ("service bench: resume POST: " ^ e)
  in
  let rec wait_for_snapshot tries =
    if tries = 0 then failwith "service bench: no snapshot appeared"
    else if Store.snapshots ~dir:dir2 long_id = [] then begin
      Thread.delay 0.01;
      wait_for_snapshot (tries - 1)
    end
  in
  wait_for_snapshot 2_000;
  Service.drain svc2;
  Telemetry_http.stop server2;
  let svc3 = Service.create cfg2 in
  let rec wait_result tries =
    if tries = 0 then failwith "service bench: resumed job never finished"
    else
      match Service.find_result svc3 long_id with
      | Some _ -> ()
      | None ->
          Thread.delay 0.01;
          wait_result (tries - 1)
  in
  wait_result 6_000;
  let _, _, _, _, resumed = Service.counters svc3 in
  Service.drain svc3;
  rm_rf_dir dir2;
  if resumed < 1 then failwith "service bench: restart resumed nothing";
  Printf.printf
    "%d jobs over HTTP (%d clients): %.3f s wall, p50 %.2f ms, p99 %.2f ms\n"
    jobs_target client_threads wall p50 p99;
  Printf.printf "quota rejections: %d   queue rejections: %d   resumed after restart: %d\n"
    rejected_quota rejected_queue resumed;
  service_summary :=
    Obs.Json.Obj
      [
        ("jobs", Obs.Json.Int jobs_target);
        ("completed", Obs.Json.Int (Array.length all));
        ("p50_ms", Obs.Json.Float p50);
        ("p99_ms", Obs.Json.Float p99);
        ("rejected", Obs.Json.Int rejected_quota);
        ("rejected_queue", Obs.Json.Int rejected_queue);
        ("resumed", Obs.Json.Int resumed);
      ]

let () =
  if not !skip_tables then print_tables ();
  measure_throughput ();
  run_profile ();
  run_delta_comparison ();
  run_portfolio_scaling ();
  run_lint_bench ();
  run_service_bench ();
  if not !skip_micro then run_micro ();
  write_json ();
  print_newline ()
