(* A single Metropolis temperature: [of_estimate] of the [WHIT84]
   estimate from [start]. *)
let metropolis_temperature problem of_estimate rng start =
  Schedule.of_array [| of_estimate (Temperature.estimate problem rng start) |]

(* A quarter of the estimated hottest temperature, at least [floor]. *)
let quarter_y1 ~floor e = Float.max floor (e.Temperature.suggested_y1 /. 4.)

let g_one_schedule _rng _start = Schedule.constant ~k:1 1.

(* One row of an extension table: [f] run on a fresh copy of every
   instance, each on its own stream seeded by the row name and the
   instance index. *)
let row ~seed instances name f =
  ( name,
    List.mapi
      (fun i fresh -> f (Rng.create ~seed:(seed + Hashtbl.hash (name, i))) (fresh ()))
      (Array.to_list instances) )

(* The three Monte Carlo rows of E3, E5, E6 and E7, each made by
   [run_all] (a {!row} over fresh starts) and reporting [result] of its
   Figure 1 run: six-temperature annealing on the [WHIT84] schedule,
   Metropolis at {!quarter_y1}, and [g = 1]. *)
let mc_rows (type s m) (module P : Mc_problem.S with type state = s and type move = m) ~floor
    ~budget ~result run_all =
  let sa name gfun schedule_of =
    run_all name (fun rng start ->
        result
          (Engine.or_raise
             (Engine.run (module P) (Engine.figure1 ()) ~gfun ~schedule:(schedule_of rng start)
                ~budget rng start)))
  in
  [
    sa "Six Temperature Annealing [WHIT84 Y's]" Gfun.six_temp_annealing
      (Temperature.suggest_schedule (module P));
    sa "Metropolis" Gfun.metropolis (metropolis_temperature (module P) (quarter_y1 ~floor));
    sa "g = 1" Gfun.g_one g_one_schedule;
  ]

let best_cost r = int_of_float r.Mc_problem.best_cost

(* A row of a method's total over the instances and its mean. *)
let total_and_mean (name, values) =
  let total = List.fold_left ( + ) 0 values in
  ( name,
    Report.Int total
    :: Report.float_cells ~decimals:1 [ float_of_int total /. float_of_int (List.length values) ]
  )

(* ------------------------------------------------------------------ *)
(* E1: travelling salesperson                                          *)
(* ------------------------------------------------------------------ *)

let table_tsp ~seed ~scale =
  let instances = 5 and cities = 60 in
  let master = Rng.create ~seed in
  let insts = Array.init instances (fun _ -> Tsp_instance.random_uniform (Rng.split master) ~n:cities) in
  let starts = Array.map (fun inst -> Tour.random (Rng.split master) inst) insts in
  (* [GOLD84] reports annealing needed 20-60x the time of Stewart's
     heuristic; we give the Monte Carlo rows (and the budget-matched
     2-opt restarts) 10 simulated minutes each. *)
  let budget = Budget.scale scale (Suites.seconds 600.) in
  let budget_evals = Budget.evaluations budget in
  (* A 2-opt descent from a random tour needs roughly n^2 move tests
     per improving step and O(n) steps; match the restart count to the
     Monte Carlo budget. *)
  let descent_cost = cities * cities * 4 in
  let restarts = max 1 (budget_evals / descent_cost) in
  let run_mc = row ~seed (Array.mapi (fun i inst () -> (inst, Tour.copy starts.(i))) insts) in
  let sa_method name ?defer_threshold gfun schedule_of =
    run_mc name (fun rng (_inst, start) ->
        let schedule = schedule_of rng start in
        (Engine.or_raise
           (Engine.run (module Tsp_problem) (Engine.figure1 ?defer_threshold ()) ~gfun ~schedule
              ~budget rng start))
          .Mc_problem.best_cost)
  in
  let methods =
    [
      run_mc "Nearest neighbor" (fun _rng (inst, _start) ->
          Tour.length (Tsp_heuristics.nearest_neighbor inst ~start:0));
      run_mc "Cheapest insertion" (fun _rng (inst, _start) ->
          Tour.length (Tsp_heuristics.cheapest_insertion inst));
      run_mc "Hull+insertion (CCAO)" (fun _rng (inst, _start) ->
          Tour.length (Tsp_heuristics.hull_insertion inst));
      run_mc "2-opt descent (NN start)" (fun _rng (inst, _start) ->
          let tour = Tsp_heuristics.nearest_neighbor inst ~start:0 in
          ignore (Tsp_heuristics.two_opt_descent tour);
          Tour.length tour);
      run_mc
        (Printf.sprintf "2-opt, %d random restarts" restarts)
        (fun rng (inst, _start) ->
          Tour.length (Tsp_heuristics.two_opt_restarts rng inst ~restarts));
      sa_method "Six Temperature Annealing" Gfun.six_temp_annealing
        (Temperature.suggest_schedule (module Tsp_problem));
      sa_method "Metropolis" Gfun.metropolis
        (* a single fixed temperature must sit near the cold end or
           the walk never condenses -- the schedule sensitivity of
           the paper's conclusion 1 *)
        (metropolis_temperature (module Tsp_problem) (fun e ->
             Float.max e.Temperature.suggested_yk (e.Temperature.suggested_y1 /. 32.)));
      sa_method "g = 1" Gfun.g_one g_one_schedule;
      (* On a continuous objective, the paper's threshold of 18 accepts
         magnitude-blind climbs too often; a higher threshold shows the
         rule's sensitivity to the cost landscape. *)
      sa_method "g = 1 (defer threshold 400)" ~defer_threshold:400 Gfun.g_one g_one_schedule;
    ]
  in
  let best =
    List.fold_left
      (fun acc (_, lengths) -> List.fold_left Float.min acc lengths)
      infinity methods
    |> fun x -> Float.max x 1e-9
  in
  let rows =
    List.map
      (fun (name, lengths) ->
        let arr = Array.of_list lengths in
        let mean = Stats.mean arr in
        let excess = (mean -. best) /. best *. 100. in
        (name, Report.float_cells ~decimals:3 [ mean ] @ Report.float_cells ~decimals:1 [ excess ]))
      methods
  in
  Report.make
    ~title:"Table E1 -- TSP extension ([NAHA84]/[GOLD84] protocol): equal budgets"
    ~header:[ "method"; "mean length"; "% over best run" ]
    ~notes:
      [
        Printf.sprintf "%d uniform instances, %d cities, budget %d proposed 2-opt moves"
          instances cities budget_evals;
        "the hull+insertion row stands in for Stewart's CCAO heuristic [STEW77]";
        "Monte Carlo rows get ~10x a constructive heuristic's work, as [GOLD84] reports";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: circuit partition                                               *)
(* ------------------------------------------------------------------ *)

let table_partition ~seed ~scale =
  let instances = 5 and elements = 80 and edges = 200 in
  let master = Rng.create ~seed in
  let insts =
    Array.init instances (fun _ ->
        Netlist.random_gola (Rng.split master) ~elements ~nets:edges)
  in
  let starts = Array.map (fun nl -> Bipartition.random_balanced (Rng.split master) nl) insts in
  let budget = Budget.scale scale (Suites.seconds 60.) in
  let budget_evals = Budget.evaluations budget in
  let run_all =
    row ~seed (Array.mapi (fun i nl () -> (nl, Bipartition.copy starts.(i))) insts)
  in
  let sa_method name gfun schedule_of =
    run_all name (fun rng (_nl, start) ->
        best_cost
          (Engine.or_raise
             (Engine.run (module Partition_problem) (Engine.figure1 ()) ~gfun
                ~schedule:(schedule_of rng start) ~budget rng start)))
  in
  let methods =
    [
      run_all "Kernighan-Lin" (fun _rng (_nl, start) ->
          ignore (Kl.refine start);
          Bipartition.cut start);
      run_all "Kernighan-Lin, best of 5" (fun rng (nl, _start) ->
          let best = ref max_int in
          for _ = 1 to 5 do
            let part = Kl.run rng nl in
            if Bipartition.cut part < !best then best := Bipartition.cut part
          done;
          !best);
      run_all "Fiduccia-Mattheyses" (fun _rng (_nl, start) ->
          ignore (Fm.refine start);
          Bipartition.cut start);
      run_all "Fiduccia-Mattheyses, best of 5" (fun rng (nl, _start) ->
          let best = ref max_int in
          for _ = 1 to 5 do
            let part = Fm.run rng nl in
            if Bipartition.cut part < !best then best := Bipartition.cut part
          done;
          !best);
      sa_method "Six Temp Annealing [KIRK83 schedule]" Gfun.six_temp_annealing
        (fun _rng _start -> Schedule.kirkpatrick ());
      sa_method "Six Temp Annealing [WHIT84 schedule]" Gfun.six_temp_annealing
        (Temperature.suggest_schedule (module Partition_problem));
      sa_method "Metropolis" Gfun.metropolis
        (metropolis_temperature (module Partition_problem) (quarter_y1 ~floor:0.5));
      sa_method "g = 1" Gfun.g_one g_one_schedule;
    ]
  in
  let rows = List.map total_and_mean methods in
  Report.make
    ~title:"Table E2 -- circuit partition extension ([KIRK83] problem): equal budgets"
    ~header:[ "method"; "total cut"; "mean cut" ]
    ~notes:
      [
        Printf.sprintf
          "%d random graphs, %d elements, %d edges, balanced bipartition, budget %d proposed swaps"
          instances elements edges budget_evals;
        "starts shared across the Monte Carlo methods and single-run KL";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* S1: instance scaling                                                *)
(* ------------------------------------------------------------------ *)

(* A Figure 1 run on the pairwise-interchange problem, priced by its
   deltas. *)
let fig1 =
  Engine.run (module Linarr_problem.Swap) ~delta_ops:Linarr_problem.Swap.delta_ops
    (Engine.figure1 ())

let table_scaling ~seed ~scale =
  let instances = 10 in
  let sizes = [ 15; 25; 40 ] in
  let suite_for n =
    let master = Rng.create ~seed:(seed + n) in
    let insts =
      Array.init instances (fun _ ->
          let nl = Netlist.random_gola (Rng.split master) ~elements:n ~nets:(10 * n) in
          (nl, Rng.permutation master n))
    in
    let netlists = Array.map fst insts in
    {
      Suites.netlists;
      initial_orders = Array.map snd insts;
      goto_orders = lazy (Array.map Goto.order netlists);
    }
  in
  let suites = List.map (fun n -> (n, suite_for n)) sizes in
  (* Budget per instance grows with the pairwise-interchange
     neighborhood, keeping sweeps-per-budget constant across sizes. *)
  let budget_for n =
    Budget.scale scale (Budget.Evaluations (30 * (n * (n - 1) / 2)))
  in
  let mc_method gfun schedule_of n suite =
    let streams = Array.init instances (fun i -> Rng.create ~seed:(seed + Hashtbl.hash (n, i))) in
    Suites.total
      (Suites.runs streams suite (fun rng state ->
           fig1 ~gfun ~schedule:(schedule_of rng state) ~budget:(budget_for n) rng state))
  in
  let methods =
    [
      ("Goto", fun _ suite -> Suites.goto_reduction suite);
      ("g = 1", mc_method Gfun.g_one g_one_schedule);
      ("Six Temperature Annealing [WHIT84 Y's]", mc_method Gfun.six_temp_annealing (Temperature.suggest_schedule (module Linarr_problem.Swap)));
      ("Cubic Diff (Y = 0.3)", mc_method (Gfun.poly_diff ~k:1 ~degree:3) (fun _ _ ->
           Schedule.of_array [| 0.3 |]));
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        (name, List.map (fun (n, suite) -> Report.Int (f n suite)) suites))
      methods
  in
  let totals =
    List.map
      (fun (n, suite) ->
        Printf.sprintf "n = %d: starting total %d" n (Suites.total_initial_density suite))
      suites
  in
  Report.make
    ~title:"Table S1 -- scaling beyond the paper's 15 elements (GOLA, nets = 10n)"
    ~header:("method" :: List.map (fun n -> Printf.sprintf "n = %d" n) sizes)
    ~notes:
      ((Printf.sprintf
          "%d instances per size; budget = 30 x n(n-1)/2 proposals, scale %.2f"
          instances scale)
      :: totals)
    rows

(* ------------------------------------------------------------------ *)
(* A8: run-to-run variance                                             *)
(* ------------------------------------------------------------------ *)

let table_variance ~seed ~scale =
  let replications = 5 in
  let suite = Suites.gola () in
  let budget = Budget.scale scale (Suites.seconds 12.) in
  let methods =
    [
      ("Six Temperature Annealing", Gfun.six_temp_annealing,
       Schedule.geometric ~y1:1. ~ratio:0.9 ~k:6);
      ("g = 1", Gfun.g_one, Schedule.constant ~k:1 1.);
      ("Cubic Diff", Gfun.poly_diff ~k:1 ~degree:3, Schedule.of_array [| 0.3 |]);
      ("Metropolis", Gfun.metropolis, Schedule.of_array [| 0.5 |]);
    ]
  in
  let one_total gfun schedule rng =
    float_of_int (Suites.total_reduction rng suite (fig1 ~gfun ~schedule ~budget))
  in
  let rows =
    List.map
      (fun (name, gfun, schedule) ->
        let rng = Rng.create ~seed:(seed + Hashtbl.hash name) in
        let totals =
          Array.init replications (fun _ -> one_total gfun schedule (Rng.split rng))
        in
        let mean, halfwidth = Stats.mean_ci95 totals in
        let lo, hi = Stats.min_max totals in
        ( name,
          [
            Report.Text (Printf.sprintf "%.0f +- %.0f" mean halfwidth);
            Report.Int (int_of_float lo);
            Report.Int (int_of_float hi);
          ] ))
      methods
  in
  Report.make
    ~title:
      (Printf.sprintf
         "Table A8 -- run-to-run spread over %d replications (GOLA, 12 s, fixed schedules)"
         replications)
    ~header:[ "g function"; "mean +- 95% CI"; "min"; "max" ]
    ~notes:
      [
        "quantifies section 4.2.2's remark that column anomalies stem from randomness";
        "fixed mid-range schedules, so rows are comparable across replications";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: convergence to the true optimum                                 *)
(* ------------------------------------------------------------------ *)

let table_convergence ~seed ~scale =
  let instances = 12 and elements = 8 in
  let master = Rng.create ~seed in
  let insts =
    Array.init instances (fun _ ->
        let nl =
          Netlist.random_gola (Rng.split master) ~elements ~nets:(4 * elements)
        in
        (nl, Linarr_exact.optimal_density nl, Rng.permutation master elements))
  in
  let budgets =
    List.map
      (fun evals ->
        (evals, Budget.scale scale (Budget.Evaluations evals)))
      [ 250; 1000; 4000; 16000 ]
  in
  let hits name run_one budget =
    row ~seed
      (Array.map (fun (nl, opt, order) () -> (Arrangement.create ~order nl, opt)) insts)
      name
      (fun rng (state, opt) -> run_one rng budget state <= opt)
    |> snd |> List.filter Fun.id |> List.length
  in
  let mc name gfun schedule =
    (name, fun rng budget state ->
      best_cost (Engine.or_raise (fig1 ~gfun ~schedule ~budget rng state)))
  in
  let methods =
    [
      mc "g = 1" Gfun.g_one (Schedule.constant ~k:1 1.);
      mc "Six Temperature Annealing" Gfun.six_temp_annealing
        (Schedule.geometric ~y1:2. ~ratio:0.7 ~k:6);
      mc "Metropolis" Gfun.metropolis (Schedule.of_array [| 0.7 |]);
      mc "Cubic Diff" (Gfun.poly_diff ~k:1 ~degree:3) (Schedule.of_array [| 0.3 |]);
      ( "descent, restarts to budget",
        fun rng budget state ->
          (* restart hill climbing until the same budget is spent *)
          let clock = Budget.start budget in
          let nl = Arrangement.netlist state in
          let best = ref (Arrangement.density state) in
          while not (Budget.exhausted clock) do
            let candidate = Arrangement.random rng nl in
            let report = Local_search.pairwise_descent candidate in
            for _ = 1 to report.Local_search.moves_tested do
              Budget.tick clock
            done;
            if report.Local_search.final_density < !best then
              best := report.Local_search.final_density
          done;
          !best );
    ]
  in
  let rows =
    List.map
      (fun (name, run_one) ->
        ( name,
          List.map
            (fun (_, budget) ->
              Report.Text
                (Printf.sprintf "%d/%d" (hits name run_one budget) instances))
            budgets ))
      methods
  in
  Report.make
    ~title:
      (Printf.sprintf
         "Table E4 -- runs reaching the exact optimum (%d-element GOLA, optima by subset DP)"
         elements)
    ~header:
      ("method"
      :: List.map (fun (evals, _) -> Printf.sprintf "%d evals" evals) budgets)
    ~notes:
      [
        "empirical check of the asymptotic-optimality results cited in section 2 ([LUND83], [ROME84], [GEM83])";
        Printf.sprintf "%d instances, %d elements, %d two-pin nets each" instances
          elements (4 * elements);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: gate-array placement                                            *)
(* ------------------------------------------------------------------ *)

let table_placement ~seed ~scale =
  let instances = 5 and rows = 6 and cols = 8 and nets = 120 in
  let cells = rows * cols in
  let master = Rng.create ~seed in
  let insts =
    Array.init instances (fun _ ->
        Netlist.random_nola (Rng.split master) ~elements:cells ~nets ~min_pins:2
          ~max_pins:4)
  in
  let starts = Array.map (fun nl -> Placement.random (Rng.split master) ~rows ~cols nl) insts in
  let budget = Budget.scale scale (Suites.seconds 120.) in
  let budget_evals = Budget.evaluations budget in
  let run_all =
    row ~seed (Array.mapi (fun i nl () -> (nl, Placement.copy starts.(i))) insts)
  in
  let descend start clock =
    (* first-improvement swap descent, charged to the same budget *)
    let improved = ref true in
    while !improved && not (Budget.exhausted clock) do
      improved := false;
      Seq.iter
        (fun (s1, s2) ->
          if (not !improved) && not (Budget.exhausted clock) then begin
            Budget.tick clock;
            let before = Placement.hpwl start in
            Placement.swap_slots start s1 s2;
            if Placement.hpwl start >= before then Placement.swap_slots start s1 s2
            else improved := true
          end)
        (Placement.Problem.moves start)
    done;
    Placement.hpwl start
  in
  let methods =
    [
      run_all "random start (no search)" (fun _rng (_nl, start) -> Placement.hpwl start);
      run_all "Goto order, row-major [KANG83]" (fun _rng (nl, _start) ->
          Placement.hpwl (Placement.goto_seeded ~rows ~cols nl));
      run_all "swap descent" (fun _rng (_nl, start) -> descend start (Budget.start budget));
    ]
    @ mc_rows (module Placement.Problem) ~floor:0.5 ~budget ~result:best_cost
        (fun name f -> run_all name (fun rng (_nl, start) -> f rng start))
  in
  let rows_out = List.map total_and_mean methods in
  Report.make
    ~title:"Table E3 -- gate-array placement ([KANG83]/[KIRK83] application): equal budgets"
    ~header:[ "method"; "total HPWL"; "mean HPWL" ]
    ~notes:
      [
        Printf.sprintf
          "%d instances, %d x %d grid, %d cells, %d nets (2-4 pins), budget %d proposed swaps"
          instances rows cols cells nets budget_evals;
        "objective: half-perimeter wirelength; moves exchange two grid slots";
      ]
    rows_out

(* ------------------------------------------------------------------ *)
(* E5: global wiring                                                   *)
(* ------------------------------------------------------------------ *)

let table_wiring ~seed ~scale =
  let instances = 5 and grid = 10 and nets = 150 in
  let master = Rng.create ~seed in
  let ends =
    Array.init instances (fun _ ->
        Wiring.random_instance (Rng.split master) ~width:grid ~height:grid ~nets)
  in
  let budget = Budget.scale scale (Suites.seconds 80.) in
  let budget_evals = Budget.evaluations budget in
  let run_all = row ~seed (Array.map (fun e () -> Wiring.create ~width:grid ~height:grid e) ends) in
  let methods =
    [
      run_all "all horizontal-first" (fun _rng w -> (Wiring.cost w, Wiring.max_usage w));
      run_all "greedy rip-up fixpoint" (fun _rng w ->
          ignore (Wiring.greedy_fixpoint w);
          (Wiring.cost w, Wiring.max_usage w));
    ]
    @ mc_rows (module Wiring.Problem) ~floor:1. ~budget run_all ~result:(fun r ->
          (best_cost r, Wiring.max_usage r.Mc_problem.best))
  in
  let rows =
    List.map
      (fun (name, results) ->
        let costs = List.map fst results and peaks = List.map snd results in
        ( name,
          [
            Report.Int (List.fold_left ( + ) 0 costs);
            Report.Int (List.fold_left max 0 peaks);
          ] ))
      methods
  in
  Report.make
    ~title:"Table E5 -- global wiring ([VECC83]): sum of squared channel usages"
    ~header:[ "method"; "total cost"; "worst channel" ]
    ~notes:
      [
        Printf.sprintf
          "%d instances, %dx%d grid, %d two-pin nets as L-routes, budget %d flips"
          instances grid grid nets budget_evals;
        "cost = sum over grid edges of usage^2 ([VECC83]'s congestion objective)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: slicing floorplans                                              *)
(* ------------------------------------------------------------------ *)

let table_floorplan ~seed ~scale =
  let instances = 5 and blocks = 20 in
  let master = Rng.create ~seed in
  let dims_of rng =
    Array.init blocks (fun _ -> (Rng.int_range rng 2 12, Rng.int_range rng 2 12))
  in
  let insts = Array.init instances (fun _ -> dims_of (Rng.split master)) in
  let budget = Budget.scale scale (Suites.seconds 80.) in
  let budget_evals = Budget.evaluations budget in
  let run_all = row ~seed (Array.map Fun.const insts) in
  let methods =
    [
      run_all "one-row initial expression" (fun _rng dims ->
          Floorplan.area (Floorplan.create dims));
      run_all "shelf packing (NFDH)" (fun _rng dims -> Floorplan.shelf_pack dims);
    ]
    @ mc_rows (module Floorplan.Problem) ~floor:1. ~budget ~result:best_cost (fun name f ->
          run_all name (fun rng dims -> f rng (Floorplan.create dims)))
  in
  let block_totals =
    Array.to_list insts
    |> List.map (fun dims -> Array.fold_left (fun acc (w, h) -> acc + (w * h)) 0 dims)
  in
  let total_blocks = List.fold_left ( + ) 0 block_totals in
  let rows =
    List.map
      (fun (name, areas) ->
        let total = List.fold_left ( + ) 0 areas in
        let util = float_of_int total_blocks /. float_of_int total *. 100. in
        ( name,
          [ Report.Int total ] @ Report.float_cells ~decimals:1 [ util ] ))
      methods
  in
  Report.make
    ~title:"Table E6 -- slicing floorplans (Wong-Liu polish expressions): equal budgets"
    ~header:[ "method"; "total area"; "utilization %" ]
    ~notes:
      [
        Printf.sprintf
          "%d instances, %d blocks each (2-12 x 2-12), budget %d proposed moves"
          instances blocks budget_evals;
        Printf.sprintf "total block area across instances: %d" total_blocks;
        "moves: adjacent-operand swap, chain complement, operand/operator swap, rotation";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: quadratic assignment                                            *)
(* ------------------------------------------------------------------ *)

let table_qap ~seed ~scale =
  let instances = 5 and n = 20 in
  let master = Rng.create ~seed in
  let insts =
    Array.init instances (fun _ ->
        let q = Qap.random_instance (Rng.split master) ~n ~max_entry:9 in
        Qap.set_assignment q (Rng.permutation master n);
        q)
  in
  let budget = Budget.scale scale (Suites.seconds 80.) in
  let budget_evals = Budget.evaluations budget in
  let run_all = row ~seed (Array.map (fun q () -> Qap.copy q) insts) in
  let methods =
    [
      run_all "random start (no search)" (fun _rng q -> Qap.cost q);
      run_all "swap descent" (fun _rng q ->
          ignore (Qap.descent q);
          Qap.cost q);
      run_all "descent, 5 restarts" (fun rng q ->
          let best = ref max_int in
          for _ = 1 to 5 do
            Qap.set_assignment q (Rng.permutation rng (Qap.size q));
            ignore (Qap.descent q);
            if Qap.cost q < !best then best := Qap.cost q
          done;
          !best);
    ]
    @ mc_rows (module Qap.Problem) ~floor:1. ~budget ~result:best_cost run_all
  in
  let rows = List.map total_and_mean methods in
  Report.make
    ~title:"Table E7 -- quadratic assignment (the 'arbitrary problem' of section 1)"
    ~header:[ "method"; "total cost"; "mean cost" ]
    ~notes:
      [
        Printf.sprintf
          "%d instances, n = %d, symmetric random flows/distances in 0..9, budget %d swaps"
          instances n budget_evals;
        "descent restarts are not budget-charged: they show the dedicated-heuristic bar";
      ]
    rows
