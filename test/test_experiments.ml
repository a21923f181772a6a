(* The experiment harness: suites, report rendering, and structural
   checks of every table driver at a miniature scale. *)

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------ report ---------------------------- *)

let test_report_render () =
  let t =
    Report.make ~title:"T" ~header:[ "name"; "a"; "b" ]
      ~notes:[ "a note" ]
      [ ("row one", [ Report.Int 1; Report.Float 2.5 ]);
        ("r2", [ Report.Missing; Report.Text "x" ]) ]
  in
  let s = Report.render t in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.check Alcotest.bool "title" true (contains "T\n");
  Alcotest.check Alcotest.bool "header" true (contains "name");
  Alcotest.check Alcotest.bool "int cell" true (contains "1");
  Alcotest.check Alcotest.bool "float cell" true (contains "2.5");
  Alcotest.check Alcotest.bool "missing cell" true (contains "-");
  Alcotest.check Alcotest.bool "note" true (contains "note: a note")

let test_report_cells () =
  Alcotest.check Alcotest.string "int" "7" (Report.cell_to_string (Report.Int 7));
  Alcotest.check Alcotest.string "float" "1.5" (Report.cell_to_string (Report.Float 1.5));
  Alcotest.check Alcotest.string "text" "hi" (Report.cell_to_string (Report.Text "hi"));
  Alcotest.check Alcotest.string "missing" "-" (Report.cell_to_string Report.Missing);
  match Report.float_cells ~decimals:3 [ 0.12345 ] with
  | [ Report.Text "0.123" ] -> ()
  | _ -> Alcotest.fail "float_cells formatting"

let test_report_alignment () =
  let t =
    Report.make ~title:"Align" ~header:[ "h"; "col" ]
      [ ("a", [ Report.Int 1 ]); ("long label", [ Report.Int 22 ]) ]
  in
  let lines = String.split_on_char '\n' (Report.render t) in
  (* all data lines equal length (padded) *)
  let data_lines = List.filteri (fun i _ -> i >= 2 && i <= 5) lines in
  match data_lines with
  | l1 :: rest ->
      List.iter
        (fun l ->
          if l <> "" then
            Alcotest.check Alcotest.int "same width" (String.length l1) (String.length l))
        rest
  | [] -> Alcotest.fail "no lines"

let test_report_csv () =
  let t =
    Report.make ~title:"T" ~header:[ "name"; "v" ]
      [ ("plain", [ Report.Int 3 ]); ("needs,quoting", [ Report.Text "a\"b" ]) ]
  in
  Alcotest.check Alcotest.string "csv" "name,v\nplain,3\n\"needs,quoting\",\"a\"\"b\"\n"
    (Report.to_csv t)

(* ------------------------------ suites ---------------------------- *)

let test_gola_suite_shape () =
  let s = Suites.gola () in
  Alcotest.check Alcotest.int "30 instances" 30 (Array.length s.Suites.netlists);
  Array.iter
    (fun nl ->
      Alcotest.check Alcotest.int "15 elements" 15 (Netlist.n_elements nl);
      Alcotest.check Alcotest.int "150 nets" 150 (Netlist.n_nets nl);
      Alcotest.check Alcotest.bool "two-pin" true (Netlist.is_graph nl))
    s.Suites.netlists

let test_nola_suite_shape () =
  let s = Suites.nola () in
  Alcotest.check Alcotest.int "30 instances" 30 (Array.length s.Suites.netlists);
  let multi = ref false in
  Array.iter
    (fun nl -> if not (Netlist.is_graph nl) then multi := true)
    s.Suites.netlists;
  Alcotest.check Alcotest.bool "contains multi-pin nets" true !multi

let test_nola_suite_sizes () =
  Array.iter
    (fun nl ->
      Alcotest.check Alcotest.int "15 elements" 15 (Netlist.n_elements nl);
      Alcotest.check Alcotest.int "150 nets" 150 (Netlist.n_nets nl);
      for j = 0 to Netlist.n_nets nl - 1 do
        let size = Netlist.net_size nl j in
        Alcotest.check Alcotest.bool "2 to 5 pins" true (size >= 2 && size <= 5)
      done)
    (Suites.nola ()).Suites.netlists

let test_suite_instances_distinct () =
  (* Each instance draws from its own stream: no two of the thirty
     coincide, within a suite or across GOLA and NOLA. *)
  let all = Array.append (Suites.gola ()).Suites.netlists (Suites.nola ()).Suites.netlists in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            Alcotest.check Alcotest.bool (Printf.sprintf "instances %d and %d differ" i j) false
              (Netlist.equal a b))
        all)
    all

let test_suite_deterministic () =
  let a = Suites.gola () and b = Suites.gola () in
  Alcotest.check Alcotest.bool "same netlists" true
    (Array.for_all2 Netlist.equal a.Suites.netlists b.Suites.netlists);
  Alcotest.check Alcotest.bool "same starts" true
    (a.Suites.initial_orders = b.Suites.initial_orders)

let test_initial_arrangements_fresh () =
  let s = Suites.gola () in
  let a = Suites.initial_arrangement s 0 in
  let b = Suites.initial_arrangement s 0 in
  Arrangement.swap_positions a 0 1;
  Alcotest.check Alcotest.bool "independent copies" false
    (Arrangement.order a = Arrangement.order b)

let test_goto_arrangement_matches_goto () =
  let s = Suites.gola () in
  for i = 0 to 2 do
    Alcotest.check Alcotest.int "goto arrangement density"
      (Goto.density s.Suites.netlists.(i))
      (Arrangement.density (Suites.goto_arrangement s i))
  done

let test_totals () =
  let s = Suites.gola () in
  let manual = ref 0 in
  for i = 0 to Array.length s.Suites.netlists - 1 do
    manual := !manual + Arrangement.density (Suites.initial_arrangement s i)
  done;
  Alcotest.check Alcotest.int "total initial density" !manual (Suites.total_initial_density s)

let test_goto_reduction () =
  let s = Suites.gola () in
  let manual = ref 0 in
  Array.iteri
    (fun i nl ->
      manual := !manual + Arrangement.density (Suites.initial_arrangement s i) - Goto.density nl)
    s.Suites.netlists;
  Alcotest.check Alcotest.int "sum of Goto reductions" !manual (Suites.goto_reduction s)

let metropolis_run rng state =
  Engine.run (module Linarr_problem.Swap) (Engine.figure1 ()) ~gfun:Gfun.metropolis
    ~schedule:(Schedule.of_array [| 0.5 |]) ~budget:(Budget.Evaluations 200) rng state

let test_runs_sum_in_order () =
  let s = Suites.gola () in
  let runs = Suites.runs (Suites.streams (Rng.create ~seed:5) s) s metropolis_run in
  Alcotest.check Alcotest.int "one run per instance" (Array.length s.Suites.netlists)
    (Array.length runs);
  Array.iteri
    (fun i (reduction, r) ->
      let best = r.Mc_problem.best in
      Alcotest.check Alcotest.bool "run i is instance i" true
        (Arrangement.netlist best == s.Suites.netlists.(i));
      Alcotest.check Alcotest.int "reduction from instance i's start"
        (Arrangement.density (Suites.initial_arrangement s i) - Arrangement.density best)
        reduction)
    runs;
  Alcotest.check Alcotest.int "runs sum to total_reduction"
    (Suites.total_reduction (Rng.create ~seed:5) s metropolis_run)
    (Suites.total runs)

(* Each strategy on both evaluators over the GOLA suite: the delta path
   prices the same proposals from the same draws, so every instance's
   reduction and statistics match the recompute path's. *)
let test_runners_agree_on_both_evaluators () =
  let s = Suites.gola () in
  let gfun = Gfun.six_temp_annealing and schedule = Schedule.geometric ~y1:1. ~ratio:0.9 ~k:6 in
  let budget = Budget.Evaluations 600 in
  let module P = Linarr_problem.Swap in
  let strategies =
    [
      ("figure1", Engine.figure1 ());
      ("figure2", Engine.Figure2);
      ("rejectionless", Engine.Rejectionless);
    ]
  in
  let stats r = Obs.Json.to_string (Mc_problem.stats_to_json r.Mc_problem.stats) in
  List.iter
    (fun (name, strategy) ->
      let on delta_ops =
        Suites.runs (Suites.streams (Rng.create ~seed:12) s) s
          (Engine.run (module P) ?delta_ops strategy ~gfun ~schedule ~budget)
      in
      let delta = on (Some P.delta_ops) in
      Array.iteri
        (fun i (reduction, r) ->
          let reduction', r' = delta.(i) in
          let what = Printf.sprintf "%s, instance %d: " name i in
          Alcotest.check Alcotest.int (what ^ "reduction") reduction reduction';
          Alcotest.check Alcotest.string (what ^ "statistics") (stats r) (stats r'))
        (on None))
    strategies

let test_streams_match_interleaved_splits () =
  let s = Suites.gola () in
  let streams = Suites.streams (Rng.create ~seed:6) s in
  let states = Array.map Rng.to_state streams in
  let runs = Suites.runs streams s metropolis_run in
  (* the streams a loop gets that splits each instance's stream just
     before running it *)
  let rng = Rng.create ~seed:6 in
  Array.iteri
    (fun i (reduction, _) ->
      let own = Rng.split rng in
      Alcotest.check Alcotest.string "same stream" (Rng.to_state own) states.(i);
      let state = Suites.initial_arrangement s i in
      let initial = Arrangement.density state in
      let r = Engine.or_raise (metropolis_run own state) in
      Alcotest.check Alcotest.int "same reduction"
        (initial - Arrangement.density r.Mc_problem.best)
        reduction)
    runs

let test_grid_search_deterministic () =
  let s = Suites.gola () in
  let candidates = [ 0.01; 1.; 100. ] in
  let search () =
    Linarr_tables.grid_search (Rng.create ~seed:7) s ~gfun:Gfun.metropolis ~candidates
      ~budget:(Budget.Evaluations 100)
  in
  let base = search () in
  Alcotest.check Alcotest.bool "winner is a candidate" true (List.mem base candidates);
  Alcotest.check (Alcotest.float 0.) "deterministic" base (search ())

let test_grid_search_ties_go_first () =
  (* five-element instances: g = 1 reaches every optimum well within
     the budget, so every candidate scores the same total *)
  let rng = Rng.create ~seed:8 in
  let netlists = Array.init 6 (fun _ -> Netlist.random_gola rng ~elements:5 ~nets:12) in
  let s =
    {
      Suites.netlists;
      initial_orders = Array.map (fun _ -> Rng.permutation rng 5) netlists;
      goto_orders = lazy (Array.map Goto.order netlists);
    }
  in
  let budget = Budget.Evaluations 400 in
  let optimum_total =
    Suites.total_initial_density s
    - Array.fold_left (fun acc nl -> acc + Linarr_exact.optimal_density nl) 0 netlists
  in
  List.iter
    (fun seed ->
      Alcotest.check Alcotest.int "g = 1 saturates" optimum_total
        (Suites.total_reduction (Rng.create ~seed) s (fun rng state ->
             Engine.run (module Linarr_problem.Swap) (Engine.figure1 ()) ~gfun:Gfun.g_one
               ~schedule:(Gfun.schedule Gfun.g_one 1.) ~budget rng state)))
    [ 1; 2; 3 ];
  List.iter
    (fun candidates ->
      Alcotest.check (Alcotest.float 0.) "first candidate wins a tie" (List.hd candidates)
        (Linarr_tables.grid_search (Rng.create ~seed:9) s ~gfun:Gfun.g_one ~candidates ~budget))
    [ [ 0.1; 1.; 10. ]; [ 10.; 1.; 0.1 ] ]

let test_grid_search_no_candidates () =
  match
    Linarr_tables.grid_search (Rng.create ~seed:1) (Suites.gola ()) ~gfun:Gfun.metropolis
      ~candidates:[] ~budget:(Budget.Evaluations 1)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_seconds_budget () =
  Alcotest.check Alcotest.int "6 paper-seconds" (6 * Suites.evals_per_second)
    (Budget.evaluations (Suites.seconds 6.))

(* ------------------------------ tables ---------------------------- *)

(* A miniature context: every budget, tuning included, at 2% of the
   paper's.  Structure is what we assert; the full-scale numbers live
   in bench_output.txt. *)
let tiny_ctx =
  lazy
    (Linarr_tables.make_context { Linarr_tables.scale = 0.02; wide_tuning = false; seed = 9 })

let row_labels t = List.map fst t.Report.rows

let test_table_4_1_structure () =
  let t = Linarr_tables.table_4_1 (Lazy.force tiny_ctx) in
  let labels = row_labels t in
  Alcotest.check Alcotest.int "22 rows (Goto + 21 classes)" 22 (List.length labels);
  Alcotest.check Alcotest.string "first row Goto" "Goto" (List.hd labels);
  Alcotest.check Alcotest.(list string) "header" [ "g function"; "6 sec"; "9 sec"; "12 sec" ]
    t.Report.header;
  List.iter
    (fun (label, cells) ->
      Alcotest.check Alcotest.int (label ^ " has 3 cells") 3 (List.length cells))
    t.Report.rows

let test_table_4_1_reductions_sane () =
  let t = Linarr_tables.table_4_1 (Lazy.force tiny_ctx) in
  let total_initial = Suites.total_initial_density (Linarr_tables.gola_suite (Lazy.force tiny_ctx)) in
  List.iter
    (fun (label, cells) ->
      List.iter
        (fun cell ->
          match cell with
          | Report.Int r ->
              Alcotest.check Alcotest.bool (label ^ " reduction in range") true
                (r >= 0 && r <= total_initial)
          | Report.Missing -> ()
          | Report.Float _ | Report.Text _ -> Alcotest.fail "unexpected cell kind")
        cells)
    t.Report.rows

let test_table_4_2a_structure () =
  let t = Linarr_tables.table_4_2a (Lazy.force tiny_ctx) in
  Alcotest.check Alcotest.int "13 rows" 13 (List.length t.Report.rows);
  (* improvements over Goto are small but never negative *)
  List.iter
    (fun (label, cells) ->
      List.iter
        (fun cell ->
          match cell with
          | Report.Int r -> Alcotest.check Alcotest.bool (label ^ " >= 0") true (r >= 0)
          | _ -> Alcotest.fail "unexpected cell")
        cells)
    t.Report.rows

let test_table_4_2b_structure () =
  let t = Linarr_tables.table_4_2b (Lazy.force tiny_ctx) in
  Alcotest.check Alcotest.int "13 rows" 13 (List.length t.Report.rows);
  Alcotest.check Alcotest.(list string) "two strategy columns"
    [ "g function"; "Figure 1"; "Figure 2" ] t.Report.header

let test_table_4_2c_structure () =
  let t = Linarr_tables.table_4_2c (Lazy.force tiny_ctx) in
  Alcotest.check Alcotest.int "14 rows (Goto + 13)" 14 (List.length t.Report.rows);
  Alcotest.check Alcotest.string "Goto first" "Goto" (List.hd (row_labels t))

let test_table_4_2d_structure () =
  let t = Linarr_tables.table_4_2d (Lazy.force tiny_ctx) in
  Alcotest.check Alcotest.int "13 rows" 13 (List.length t.Report.rows)

let test_tables_deterministic () =
  let ctx = Lazy.force tiny_ctx in
  let a = Linarr_tables.table_4_1 ctx and b = Linarr_tables.table_4_1 ctx in
  Alcotest.check Alcotest.bool "same table twice" true (a.Report.rows = b.Report.rows)

let test_tuned_bases_cover_classes () =
  let ctx = Lazy.force tiny_ctx in
  let bases = Linarr_tables.tuned_bases ctx in
  (* 18 temperature-bearing classes of the 21-row catalog *)
  Alcotest.check Alcotest.int "18 tuned classes" 18 (List.length bases);
  List.iter
    (fun (name, base) ->
      Alcotest.check Alcotest.bool (name ^ " base positive") true (base > 0.))
    bases

let test_schedule_of_matches_k () =
  let ctx = Lazy.force tiny_ctx in
  List.iter
    (fun gfun ->
      let s = Linarr_tables.schedule_of ctx gfun in
      Alcotest.check Alcotest.int (Gfun.name gfun ^ " schedule length") (Gfun.k gfun)
        (Schedule.length s))
    (Gfun.catalog ~m:150)

let test_ext_tsp_structure () =
  let t = Ext_tables.table_tsp ~seed:1 ~scale:0.02 in
  Alcotest.check Alcotest.int "9 method rows" 9 (List.length t.Report.rows);
  List.iter
    (fun (label, cells) ->
      Alcotest.check Alcotest.int (label ^ " cells") 2 (List.length cells))
    t.Report.rows

let test_ext_partition_structure () =
  let t = Ext_tables.table_partition ~seed:1 ~scale:0.02 in
  Alcotest.check Alcotest.int "8 method rows" 8 (List.length t.Report.rows)

let test_ablation_structures () =
  let ctx = Lazy.force tiny_ctx in
  let a1 = Ablation_tables.table_schedule_sensitivity ctx in
  Alcotest.check Alcotest.int "A1: 5 factors + g=1" 6 (List.length a1.Report.rows);
  let a2 = Ablation_tables.table_defer_threshold ctx in
  Alcotest.check Alcotest.int "A2: 8 thresholds" 8 (List.length a2.Report.rows);
  let a3 = Ablation_tables.table_rejectionless ctx in
  Alcotest.check Alcotest.int "A3: 2 methods x 2 engines" 4 (List.length a3.Report.rows);
  let a4 = Ablation_tables.table_schedule_shapes ctx in
  Alcotest.check Alcotest.int "A4: 5 schedule constructions" 5 (List.length a4.Report.rows);
  let a5 = Ablation_tables.table_temperature_control ctx in
  Alcotest.check Alcotest.int "A5: 5 policies" 5 (List.length a5.Report.rows);
  let a6 = Ablation_tables.table_neighborhood ctx in
  Alcotest.check Alcotest.int "A6: 2 classes" 2 (List.length a6.Report.rows);
  let a7 = Ablation_tables.table_objective_surrogate ctx in
  Alcotest.check Alcotest.int "A7: 2 classes" 2 (List.length a7.Report.rows);
  let a9 = Ablation_tables.table_tuning_grid ctx in
  Alcotest.check Alcotest.int "A9: 5 classes" 5 (List.length a9.Report.rows)

let test_qap_table_structure () =
  let t = Ext_tables.table_qap ~seed:2 ~scale:0.02 in
  Alcotest.check Alcotest.int "6 methods" 6 (List.length t.Report.rows)

let test_wiring_table_structure () =
  let t = Ext_tables.table_wiring ~seed:2 ~scale:0.02 in
  Alcotest.check Alcotest.int "5 methods" 5 (List.length t.Report.rows)

let test_floorplan_table_structure () =
  let t = Ext_tables.table_floorplan ~seed:2 ~scale:0.02 in
  Alcotest.check Alcotest.int "5 methods" 5 (List.length t.Report.rows)

let test_placement_table_structure () =
  let t = Ext_tables.table_placement ~seed:2 ~scale:0.02 in
  Alcotest.check Alcotest.int "6 methods" 6 (List.length t.Report.rows)

let test_convergence_table_structure () =
  let t = Ext_tables.table_convergence ~seed:2 ~scale:0.05 in
  Alcotest.check Alcotest.int "5 methods" 5 (List.length t.Report.rows);
  List.iter
    (fun (label, cells) ->
      Alcotest.check Alcotest.int (label ^ ": 4 budgets") 4 (List.length cells))
    t.Report.rows

let test_scaling_table_structure () =
  let t = Ext_tables.table_scaling ~seed:2 ~scale:0.02 in
  Alcotest.check Alcotest.int "4 methods" 4 (List.length t.Report.rows);
  List.iter
    (fun (label, cells) ->
      Alcotest.check Alcotest.int (label ^ ": 3 sizes") 3 (List.length cells))
    t.Report.rows

let test_variance_table_structure () =
  let t = Ext_tables.table_variance ~seed:2 ~scale:0.02 in
  Alcotest.check Alcotest.int "4 methods" 4 (List.length t.Report.rows);
  List.iter
    (fun (label, cells) ->
      match cells with
      | [ Report.Text _; Report.Int lo; Report.Int hi ] ->
          Alcotest.check Alcotest.bool (label ^ ": min <= max") true (lo <= hi)
      | _ -> Alcotest.fail "unexpected variance row shape")
    t.Report.rows

let test_agreement_table () =
  let ctx = Lazy.force tiny_ctx in
  let measured = Linarr_tables.table_4_1 ctx in
  let t = Paper_data.agreement_table ctx ~measured in
  Alcotest.check Alcotest.int "21 joined rows" 21 (List.length t.Report.rows);
  (* three Spearman notes + two context notes *)
  Alcotest.check Alcotest.int "notes" 5 (List.length t.Report.notes);
  List.iter
    (fun (label, cells) ->
      match cells with
      | [ Report.Int _; Report.Int paper; Report.Text _ ] ->
          Alcotest.check Alcotest.bool (label ^ " paper value from table") true (paper > 400)
      | _ -> Alcotest.fail "unexpected agreement row shape")
    t.Report.rows

let data_path name =
  (* tests run from _build/default/test; the data directory sits two
     levels up in the source tree, which dune mirrors into _build *)
  List.find_opt Sys.file_exists
    [ "../data/" ^ name; "data/" ^ name; "../../data/" ^ name; "../../../data/" ^ name ]

let test_sample_netlists_load () =
  match data_path "gola15.net" with
  | None -> () (* data directory not visible from the sandbox; skip *)
  | Some path ->
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Netlist.of_string text with
      | Ok nl ->
          Alcotest.check Alcotest.int "elements" 15 (Netlist.n_elements nl);
          Alcotest.check Alcotest.int "nets" 150 (Netlist.n_nets nl)
      | Error msg -> Alcotest.fail msg)

let test_sample_tsplib_loads () =
  match data_path "berlin8.tsp" with
  | None -> ()
  | Some path -> (
      match Tsp_io.load path with
      | Ok inst -> Alcotest.check Alcotest.int "8 cities" 8 (Tsp_instance.size inst)
      | Error msg -> Alcotest.fail msg)

let test_paper_data_shape () =
  Alcotest.check Alcotest.int "21 rows transcribed" 21 (List.length Paper_data.table_4_1);
  List.iter
    (fun (name, cells) ->
      Alcotest.check Alcotest.int (name ^ " has 3 columns") 3 (List.length cells);
      Alcotest.check Alcotest.bool (name ^ " in catalog") true
        (Gfun.find_by_name ~m:150 name <> None))
    Paper_data.table_4_1;
  Alcotest.check Alcotest.int "Goto row" 601 Paper_data.goto_4_1

let suite =
  [
    case "report: render contents" test_report_render;
    case "report: cell formatting" test_report_cells;
    case "report: column alignment" test_report_alignment;
    case "report: CSV output" test_report_csv;
    case "suites: GOLA shape" test_gola_suite_shape;
    case "suites: NOLA shape" test_nola_suite_shape;
    case "suites: NOLA sizes and pin counts" test_nola_suite_sizes;
    case "suites: deterministic" test_suite_deterministic;
    case "suites: instances distinct" test_suite_instances_distinct;
    case "suites: fresh initial arrangements" test_initial_arrangements_fresh;
    case "suites: goto arrangements" test_goto_arrangement_matches_goto;
    case "suites: density totals" test_totals;
    case "suites: Goto reduction" test_goto_reduction;
    case "suites: runs sum to the total, in index order" test_runs_sum_in_order;
    case "suites: streams are the splits a run-by-run loop takes" test_streams_match_interleaved_splits;
    case "suites: runners agree on both evaluators" test_runners_agree_on_both_evaluators;
    case "grid search: a candidate, deterministically" test_grid_search_deterministic;
    case "grid search: g = 1 ties go to the first candidate" test_grid_search_ties_go_first;
    case "grid search: no candidates rejected" test_grid_search_no_candidates;
    case "suites: seconds-to-evaluations" test_seconds_budget;
    case "table 4.1: structure" test_table_4_1_structure;
    case "table 4.1: reductions sane" test_table_4_1_reductions_sane;
    case "table 4.2a: structure and non-negativity" test_table_4_2a_structure;
    case "table 4.2b: structure" test_table_4_2b_structure;
    case "table 4.2c: structure" test_table_4_2c_structure;
    case "table 4.2d: structure" test_table_4_2d_structure;
    case "tables: deterministic" test_tables_deterministic;
    case "tuning: covers all temperature-bearing classes" test_tuned_bases_cover_classes;
    case "tuning: schedule lengths match k" test_schedule_of_matches_k;
    case "table E1: structure" test_ext_tsp_structure;
    case "table E2: structure" test_ext_partition_structure;
    case "tables A1-A5: structure" test_ablation_structures;
    case "table E3: structure" test_placement_table_structure;
    case "table E4: structure" test_convergence_table_structure;
    case "table E5: structure" test_wiring_table_structure;
    case "table E6: structure" test_floorplan_table_structure;
    case "table E7: structure" test_qap_table_structure;
    case "table S1: structure" test_scaling_table_structure;
    case "table A8: structure and validation" test_variance_table_structure;
    case "agreement table vs paper" test_agreement_table;
    case "paper data transcription shape" test_paper_data_shape;
    case "sample netlist files load" test_sample_netlists_load;
    case "sample TSPLIB file loads" test_sample_tsplib_loads;
  ]
