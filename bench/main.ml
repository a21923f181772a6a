(* The reproduction harness.  Every table of the paper's evaluation
   (4.1, 4.2(a)-(d)) plus the extension tables (E1-E7), the ablations
   (A1-A9) and the scaling table (S1) is regenerated and printed in the
   paper's row layout, in the order of the [Tables] registry.
   EXPERIMENTS.md records the paper-vs-measured comparison of this
   output.

   Flags: --scale F (budget multiplier for the tables, default 1.0),
   --seed N, --wide-tuning, --json PATH.

   Besides the human-readable text on stdout, a machine-readable
   summary (sa-lab/bench-results/v2: per-table best/mean cost and wall
   time) is written to PATH when --json PATH is given, and nowhere
   otherwise; `make bench` writes the full-scale summary to
   BENCH_results.json.  Speed
   claims are not made here: they come from the ledger
   (bench/ledger/README.md), which repeats trials and records the
   noise band, commit and host. *)

let scale = ref 1.0
let seed = ref 42
let wide_tuning = ref false
let json_path = ref None

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
        Arg.String (fun p -> json_path := Some p),
        "PATH  write the machine-readable summary to PATH (default: no summary)" );
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

let write_json path =
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String "sa-lab/bench-results/v2");
        ("scale", Obs.Json.Float !scale);
        ("seed", Obs.Json.Int !seed);
        ("tables", Obs.Json.List (List.rev !table_summaries));
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "[bench] summary written to %s\n" path

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
  let ctx = Lazy.from_val (Linarr_tables.make_context ~config ()) in
  List.iter
    (fun (entry : Tables.entry) ->
      prerr_endline ("[bench] " ^ entry.label ^ "...");
      print_newline ();
      let t0 = Obs.now () in
      let table = entry.build config ctx in
      summarize_table entry.label (Obs.now () -. t0) table;
      print_string (Report.render table))
    Tables.all;
  Printf.printf "\n[tables regenerated in %.1f s CPU]\n" (Sys.time () -. t0)

let () =
  print_tables ();
  Option.iter write_json !json_path;
  print_newline ()
