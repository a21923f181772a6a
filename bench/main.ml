(* The reproduction harness.  Every table of the paper's evaluation
   (4.1, 4.2(a)-(d)) plus the extension tables (E1-E7), the ablations
   (A1-A9) and the scaling table (S1) is regenerated and printed in the
   paper's row layout.  EXPERIMENTS.md records the paper-vs-measured
   comparison of this output.

   Flags: --scale F (budget multiplier for the tables, default 1.0),
   --seed N, --wide-tuning, --json PATH.

   Besides the human-readable text on stdout, a machine-readable
   summary (sa-lab/bench-results/v2: per-table best/mean cost and wall
   time) is written to --json (default BENCH_results.json).  Speed
   claims are not made here: they come from the ledger
   (bench/ledger/README.md), which repeats trials and records the
   noise band, commit and host. *)

let scale = ref 1.0
let seed = ref 42
let wide_tuning = ref false
let json_path = ref "BENCH_results.json"

let () =
  let specs =
    [
      ( "--scale",
        Arg.Set_float scale,
        "FACTOR  multiply every table budget by FACTOR (default 1.0; smaller = faster, noisier)" );
      ("--seed", Arg.Set_int seed, "N  master random seed (default 42)");
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
        ("schema", Obs.Json.String "sa-lab/bench-results/v2");
        ("scale", Obs.Json.Float !scale);
        ("seed", Obs.Json.Int !seed);
        ("tables", Obs.Json.List (List.rev !table_summaries));
      ]
  in
  let oc = open_out !json_path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "[bench] summary written to %s\n" !json_path

(* ------------------------------------------------------------------ *)
(* Reproduction tables                                                 *)
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

let () =
  print_tables ();
  write_json ();
  print_newline ()
