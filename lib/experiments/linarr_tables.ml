type config = { scale : float; wide_tuning : bool; seed : int }

let default_config = { scale = 1.; wide_tuning = false; seed = 42 }
let tuning_seconds = 6.

type context = {
  config : config;
  gola : Suites.linarr_suite;
  nola : Suites.linarr_suite;
  tuned : (string * float) list; (* base Y by class name *)
  table_4_1 : Report.t Lazy.t;
}

let config_of c = c.config
let gola_suite c = c.gola
let net_count = 150

let budget_seconds config s = Budget.scale config.scale (Suites.seconds s)

(* A walk on the pairwise-interchange problem, priced by its deltas. *)
let swap_run = Engine.run (module Linarr_problem.Swap) ~delta_ops:Linarr_problem.Swap.delta_ops

let coarse_candidates = [ 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10.; 30.; 100. ]
let wide_candidates = [ 1e-6; 3e-6; 1e-5; 3e-5; 1e-4; 3e-4 ] @ coarse_candidates

(* The §4.2.1 protocol: score each candidate base by the suite total
   of Figure 1 runs from the shared random starts, on a split of its
   own taken in candidate order (so a candidate's runs do not depend on
   how many draws the ones before it made), and keep the first best. *)
let grid_search rng suite ~gfun ~candidates ~budget =
  if candidates = [] then invalid_arg "Linarr_tables.grid_search: no candidates";
  let scored =
    List.map
      (fun base ->
        let schedule = Gfun.schedule gfun base in
        ( base,
          Suites.total_reduction (Rng.split rng) suite
            (swap_run (Engine.figure1 ()) ~gfun ~schedule ~budget) ))
      candidates
  in
  fst
    (List.fold_left
       (fun (best, top) (base, total) -> if total > top then (base, total) else (best, top))
       (List.hd scored) (List.tl scored))

let tune_class config suite gfun =
  let rng = Rng.create ~seed:(config.seed + Hashtbl.hash (Gfun.name gfun)) in
  let candidates = if config.wide_tuning then wide_candidates else coarse_candidates in
  grid_search rng suite ~gfun ~candidates ~budget:(budget_seconds config tuning_seconds)

let tuned_bases c = c.tuned

let schedule_of c gfun =
  Gfun.schedule gfun
    (Option.value ~default:1. (List.assoc_opt (Gfun.name gfun) c.tuned))

(* Total density reduction of one method over a whole suite.  The
   strategy comes with the tag its runs are seeded by: hashing the tag,
   not the strategy, keeps every cell on the stream it has always
   drawn. *)
let total_reduction c suite ~start ~gfun ~budget ~strategy:(tag, strategy) ~column =
  let rng =
    Rng.create ~seed:(c.config.seed + Hashtbl.hash (Gfun.name gfun, column, tag))
  in
  Suites.total_reduction ~start rng suite
    (swap_run strategy ~gfun ~schedule:(schedule_of c gfun) ~budget)

let suite_note suite label =
  Printf.sprintf "%d instances, %d elements, %d nets (%s); sum of starting densities = %d"
    (Array.length suite.Suites.netlists)
    (Netlist.n_elements suite.Suites.netlists.(0))
    (Netlist.n_nets suite.Suites.netlists.(0))
    label (Suites.total_initial_density suite)

let scale_note config =
  Printf.sprintf
    "budgets: 1 paper-second = %d proposed perturbations, scale factor %.2f"
    Suites.evals_per_second config.scale

(* One of the 6/9/12 s Figure 1 tables over [suite]: from the shared
   random starts with the Goto row first, or, with [goto_start], from
   the Goto arrangements. *)
let timed_table c suite ~goto_start ~classes ~title ~notes =
  let start, goto_rows, goto_notes =
    if goto_start then
      ( Suites.goto_arrangement,
        [],
        [ Printf.sprintf "sum of Goto densities = %d" (Suites.total_goto_density suite) ] )
    else
      ( Suites.initial_arrangement,
        [ ("Goto", [ Report.Int (Suites.goto_reduction suite); Report.Missing; Report.Missing ]) ],
        [] )
  in
  let row gfun =
    ( Gfun.name gfun,
      List.map
        (fun s ->
          Report.Int
            (total_reduction c suite ~start ~gfun ~budget:(budget_seconds c.config s)
               ~strategy:(`Figure1, Engine.figure1 ()) ~column:s))
        Suites.paper_times )
  in
  Report.make ~title
    ~header:[ "g function"; "6 sec"; "9 sec"; "12 sec" ]
    ~notes:(notes @ goto_notes @ [ scale_note c.config ])
    (goto_rows @ List.map row classes)

let build_4_1 c =
  timed_table c c.gola ~goto_start:false ~classes:(Gfun.catalog ~m:net_count)
    ~title:"Table 4.1 -- GOLA, Figure 1 strategy, random starts (total density reduction)"
    ~notes:[ suite_note c.gola "GOLA: all nets two-pin" ]

let make_context config =
  let gola = Suites.gola () in
  let nola = Suites.nola () in
  let tuned =
    List.filter_map
      (fun gfun ->
        if Gfun.uses_temperature gfun then Some (Gfun.name gfun, tune_class config gola gfun)
        else None)
      (Gfun.catalog ~m:net_count)
  in
  let rec c = { config; gola; nola; tuned; table_4_1 = lazy (build_4_1 c) } in
  c

let table_4_1 c = Lazy.force c.table_4_1

let table_4_2a c =
  timed_table c c.gola ~goto_start:true ~classes:(Gfun.short_catalog ~m:net_count)
    ~title:
      "Table 4.2(a) -- GOLA, Figure 1, starting from the Goto arrangement (improvement over Goto)"
    ~notes:[ suite_note c.gola "GOLA" ]

let table_4_2b c =
  let suite = c.gola in
  let budget = budget_seconds c.config 180. in
  let rows =
    List.map
      (fun gfun ->
        let run strategy =
          total_reduction c suite ~start:Suites.initial_arrangement ~gfun ~budget ~strategy
            ~column:180.
        in
        ( Gfun.name gfun,
          [ Report.Int (run (`Figure1, Engine.figure1 ())); Report.Int (run (`Figure2, Engine.Figure2)) ]
        ))
      (Gfun.short_catalog ~m:net_count)
  in
  Report.make
    ~title:"Table 4.2(b) -- GOLA, 3 min per instance, random starts: Figure 1 vs Figure 2"
    ~header:[ "g function"; "Figure 1"; "Figure 2" ]
    ~notes:[ suite_note suite "GOLA"; scale_note c.config ]
    rows

let table_4_2c c =
  timed_table c c.nola ~goto_start:false ~classes:(Gfun.short_catalog ~m:net_count)
    ~title:"Table 4.2(c) -- NOLA, Figure 1, random starts (total density reduction)"
    ~notes:
      [
        suite_note c.nola "NOLA: 2-5 pins per net";
        "temperatures reused from the GOLA tuning, as in the paper (section 4.3.1)";
      ]

let table_4_2d c =
  timed_table c c.nola ~goto_start:true ~classes:(Gfun.short_catalog ~m:net_count)
    ~title:
      "Table 4.2(d) -- NOLA, Figure 1, starting from the Goto arrangement (improvement over Goto)"
    ~notes:[ suite_note c.nola "NOLA" ]

let tuning_table c =
  let rows =
    List.map
      (fun (name, base) -> (name, [ Report.Text (Printf.sprintf "%.4g" base) ]))
      (tuned_bases c)
  in
  Report.make
    ~title:"Tuned base temperatures (grid search, section 4.2.1 protocol)"
    ~header:[ "g function"; "base Y" ]
    ~notes:
      [
        "k = 1 classes use [base]; k = 6 classes use the geometric shape base * 0.9^i";
        Printf.sprintf "tuning budget: %.1f paper-seconds per run" tuning_seconds;
      ]
    rows
