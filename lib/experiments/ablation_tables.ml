let budget_for ctx s =
  Budget.scale (Linarr_tables.config_of ctx).Linarr_tables.scale (Suites.seconds s)

let seed_for ctx salt = (Linarr_tables.config_of ctx).Linarr_tables.seed + Hashtbl.hash salt

(* Every GOLA instance's reduction and run, on streams split from one
   seeded by [salt]. *)
let gola_runs ctx salt run =
  let suite = Linarr_tables.gola_suite ctx in
  Suites.runs (Suites.streams (Rng.create ~seed:(seed_for ctx salt)) suite) suite run

let gola_total ctx salt run = Suites.total (gola_runs ctx salt run)

(* Mean of a per-run quantity over the runs, summed in instance order. *)
let mean_over runs f =
  Array.fold_left (fun sum (_, r) -> sum +. f r) 0. runs /. float_of_int (Array.length runs)

(* A walk on the pairwise-interchange problem, priced by its deltas,
   and that walk under Figure 1. *)
let swap_run = Engine.run (module Linarr_problem.Swap) ~delta_ops:Linarr_problem.Swap.delta_ops
let fig1 = swap_run (Engine.figure1 ())

let table_schedule_sensitivity ctx =
  let gfun = Gfun.six_temp_annealing in
  let tuned = Linarr_tables.schedule_of ctx gfun in
  let budget = budget_for ctx 12. in
  let factors = [ 0.25; 0.5; 1.; 2.; 4. ] in
  let rows =
    List.map
      (fun factor ->
        let schedule = Schedule.scaled tuned factor in
        let total = gola_total ctx ("a1", factor) (fig1 ~gfun ~schedule ~budget) in
        (Printf.sprintf "tuned schedule x %.2f" factor, [ Report.Int total ]))
      factors
  in
  let g1_row =
    let total =
      gola_total ctx "a1-g1" (fig1 ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.) ~budget)
    in
    ("g = 1 (no schedule)", [ Report.Int total ])
  in
  Report.make
    ~title:"Table A1 -- schedule sensitivity of six-temperature annealing (GOLA, 12 s)"
    ~header:[ "method"; "total reduction" ]
    ~notes:[ "backs conclusion 1 of section 4.2.5: the g classes are schedule-sensitive" ]
    (rows @ [ g1_row ])

let table_defer_threshold ctx =
  let budget = budget_for ctx 12. in
  (* threshold 1 accepts every uphill proposal: the pure random walk
     the paper's implementation note exists to avoid *)
  let thresholds = [ 1; 2; 4; 8; 18; 32; 64; 256 ] in
  let rows =
    List.map
      (fun threshold ->
        let total =
          gola_total ctx ("a2", threshold)
            (swap_run (Engine.figure1 ~defer_threshold:threshold ()) ~gfun:Gfun.g_one
               ~schedule:(Schedule.constant ~k:1 1.) ~budget)
        in
        (Printf.sprintf "defer threshold %d" threshold, [ Report.Int total ]))
      thresholds
  in
  Report.make
    ~title:"Table A2 -- deferred-uphill threshold for g = 1 (GOLA, 12 s; paper uses 18)"
    ~header:[ "threshold"; "total reduction" ]
    ~notes:[ "probes the constant 18 of section 3's g = 1 implementation" ]
    rows

let table_rejectionless ctx =
  let budget = budget_for ctx 12. in
  let methods = [ ("Six Temperature Annealing", Gfun.six_temp_annealing); ("Metropolis", Gfun.metropolis) ] in
  let rows =
    List.concat_map
      (fun (name, gfun) ->
        let schedule = Linarr_tables.schedule_of ctx gfun in
        let fig1 = gola_total ctx ("a3-f1", name) (fig1 ~gfun ~schedule ~budget) in
        let rless =
          gola_runs ctx ("a3-rl", name)
            (swap_run Engine.Rejectionless ~gfun ~schedule ~budget)
        in
        let step_ratio =
          mean_over rless (fun r ->
              let { Mc_problem.descents; evaluations; _ } = r.Mc_problem.stats in
              if evaluations = 0 then 0. else float_of_int descents /. float_of_int evaluations)
        in
        [
          (name ^ " / Figure 1", [ Report.Int fig1; Report.Missing ]);
          ( name ^ " / rejectionless",
            [ Report.Int (Suites.total rless); Report.Text (Printf.sprintf "%.4f" step_ratio) ] );
        ])
      methods
  in
  Report.make
    ~title:"Table A3 -- Figure 1 vs rejectionless engine [GREE84] (GOLA, 12 s, equal budgets)"
    ~header:[ "method"; "total reduction"; "steps/evaluation" ]
    ~notes:
      [
        "the rejectionless engine pays a full neighborhood scan per step (O(n^2) here)";
        "steps/evaluation = configuration changes per budget tick";
      ]
    rows

let table_schedule_shapes ctx =
  let budget = budget_for ctx 12. in
  let tuned_six = Linarr_tables.schedule_of ctx Gfun.six_temp_annealing in
  let tuned_metropolis = Linarr_tables.schedule_of ctx Gfun.metropolis in
  let y1 = Schedule.get tuned_six 1 in
  let run name gfun schedule_of_state =
    let total =
      gola_total ctx ("a4", name) (fun rng state ->
          fig1 ~gfun ~schedule:(schedule_of_state state) ~budget rng state)
    in
    (name, [ Report.Int total ])
  in
  Report.make
    ~title:
      "Table A4 -- schedule construction for Boltzmann acceptance (GOLA, 12 s, equal budgets)"
    ~header:[ "schedule"; "total reduction" ]
    ~notes:
      [
        "all rows except g = 1 use exp(-(h(j)-h(i))/Y_temp) acceptance";
        "the GOLD84 shape spreads 25 temperatures uniformly over (0, tuned Y1]";
      ]
    [
      run "tuned geometric, k = 6 [KIRK83 shape]" Gfun.six_temp_annealing (fun _ ->
          tuned_six);
      run "25 uniform temperatures [GOLD84]" (Gfun.annealing ~k:25) (fun _ ->
          Schedule.uniform_points ~count:25 ~max:y1);
      run "WHIT84 estimate, k = 6" Gfun.six_temp_annealing (fun state ->
          Temperature.suggest_schedule (module Linarr_problem.Swap)
            (Rng.create ~seed:(seed_for ctx "a4-est")) state);
      run "single tuned temperature [Metropolis]" Gfun.metropolis (fun _ ->
          tuned_metropolis);
      run "g = 1 (no schedule)" Gfun.g_one (fun _ -> Schedule.constant ~k:1 1.);
    ]

let table_temperature_control ctx =
  let budget = budget_for ctx 12. in
  let gfun = Gfun.six_temp_annealing in
  let schedule = Linarr_tables.schedule_of ctx gfun in
  let run ?counter_limit ?acceptance_limit name =
    let runs =
      gola_runs ctx ("a5", name)
        (swap_run (Engine.figure1 ?counter_limit ?acceptance_limit ()) ~gfun ~schedule ~budget)
    in
    let evals = mean_over runs (fun r -> float_of_int r.Mc_problem.stats.Mc_problem.evaluations) in
    (name, [ Report.Int (Suites.total runs); Report.Text (Printf.sprintf "%.0f" evals) ])
  in
  Report.make
    ~title:
      "Table A5 -- temperature-advance policy for Figure 1 (six-temp annealing, GOLA, 12 s)"
    ~header:[ "policy"; "total reduction"; "mean evals used" ]
    ~notes:
      [
        "budget-share is the paper's timed protocol; the counter policies may stop early";
        "acceptance-count is the [KIRK83] equilibrium criterion described in section 2";
      ]
    [
      run "budget share (paper protocol)";
      run ~counter_limit:50 "rejection counter, n = 50";
      run ~counter_limit:200 "rejection counter, n = 200";
      run ~acceptance_limit:100 "acceptance count, 100 per temperature";
      run ~acceptance_limit:400 "acceptance count, 400 per temperature";
    ]

(* The A6/A7 rows: the tuned annealer and the schedule-free g = 1. *)
let annealer_and_g_one =
  [ ("Six Temperature Annealing", Gfun.six_temp_annealing); ("g = 1", Gfun.g_one) ]

let table_neighborhood ctx =
  let budget = budget_for ctx 12. in
  let rows =
    List.map
      (fun (name, gfun) ->
        let schedule = Linarr_tables.schedule_of ctx gfun in
        let swap = gola_total ctx ("a6-swap", name) (fig1 ~gfun ~schedule ~budget) in
        let relocate =
          gola_total ctx ("a6-rel", name)
            (Engine.run (module Linarr_problem.Relocate) (Engine.figure1 ()) ~gfun ~schedule
               ~budget)
        in
        (name, [ Report.Int swap; Report.Int relocate ]))
      annealer_and_g_one
  in
  Report.make
    ~title:"Table A6 -- perturbation neighborhood (GOLA, 12 s): pairwise interchange vs single exchange"
    ~header:[ "g function"; "pairwise interchange"; "single exchange" ]
    ~notes:
      [
        "single exchange = remove an element and reinsert it elsewhere ([COHO83a])";
        "a single-exchange move is priced by the same windowed trial as an interchange";
      ]
    rows

let table_objective_surrogate ctx =
  let budget = budget_for ctx 12. in
  let rows =
    List.map
      (fun (name, gfun) ->
        let schedule = Linarr_tables.schedule_of ctx gfun in
        let direct = gola_total ctx ("a7-d", name) (fig1 ~gfun ~schedule ~budget) in
        let surrogate =
          (* Optimize sum-of-cuts, then measure the density of the best
             sum-of-cuts arrangement. *)
          gola_total ctx ("a7-s", name) (fun rng state ->
              let schedule_s =
                (* the surrogate's cost scale is ~n/2 times larger *)
                if Gfun.uses_temperature gfun then
                  Schedule.scaled schedule (float_of_int (Arrangement.size state) /. 2.)
                else schedule
              in
              Engine.run (module Linarr_problem.Swap_sum_cuts) (Engine.figure1 ()) ~gfun
                ~schedule:schedule_s ~budget rng state)
        in
        (name, [ Report.Int direct; Report.Int surrogate ]))
      annealer_and_g_one
  in
  Report.make
    ~title:"Table A7 -- objective choice (GOLA, 12 s): direct density vs sum-of-cuts surrogate"
    ~header:[ "g function"; "direct density"; "via sum-of-cuts" ]
    ~notes:
      [
        "both columns report total DENSITY reduction; the surrogate run minimizes total crossings";
        "temperatures for the surrogate are rescaled by n/2 to match its cost scale";
      ]
    rows

let table_tuning_grid ctx =
  let suite = Linarr_tables.gola_suite ctx in
  let budget = budget_for ctx 12. in
  let tuning_budget = budget_for ctx Linarr_tables.tuning_seconds in
  let tuned_run gfun candidates =
    let rng = Rng.create ~seed:(seed_for ctx ("a9", Gfun.name gfun, List.length candidates)) in
    let base =
      Linarr_tables.grid_search (Rng.split rng) suite ~gfun ~candidates ~budget:tuning_budget
    in
    (base, Suites.total_reduction rng suite (fig1 ~gfun ~schedule:(Gfun.schedule gfun base) ~budget))
  in
  let classes =
    [
      Gfun.poly ~k:1 ~degree:1;
      Gfun.poly ~k:1 ~degree:2;
      Gfun.poly ~k:1 ~degree:3;
      Gfun.poly ~k:6 ~degree:2;
      Gfun.six_temp_annealing;
    ]
  in
  let rows =
    List.map
      (fun gfun ->
        let coarse_base, coarse = tuned_run gfun Linarr_tables.coarse_candidates in
        let wide_base, wide = tuned_run gfun Linarr_tables.wide_candidates in
        ( Gfun.name gfun,
          [
            Report.Int coarse;
            Report.Text (Printf.sprintf "%.4g" coarse_base);
            Report.Int wide;
            Report.Text (Printf.sprintf "%.4g" wide_base);
          ] ))
      classes
  in
  Report.make
    ~title:"Table A9 -- tuning-grid resolution (GOLA, 12 s): 1985-coarse vs wide grid"
    ~header:[ "g function"; "coarse"; "coarse Y"; "wide"; "wide Y" ]
    ~notes:
      [
        "coarse grid: 0.001..100 (11 points); wide grid adds 1e-6..3e-4";
        "with the wide grid the polynomial classes become competitive -- the paper's";
        "conclusion 4 (all classes perform the same, given the right choices) in action";
      ]
    rows
