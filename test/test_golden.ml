(* Golden regression values: exact outputs of fixed-seed runs, pinned
   as constants.  These lock the full deterministic pipeline (PCG32
   stream -> generators -> engines -> substrates); any change to the
   numbers below means reproducibility across versions is broken and
   bench_output.txt no longer matches EXPERIMENTS.md.  A refactor of an
   engine must leave every pin here unchanged. *)

let case name f = Alcotest.test_case name `Quick f

let test_rng_stream () =
  let rng = Rng.create ~seed:2024 in
  let values = Array.init 8 (fun _ -> Rng.int rng 1000) in
  Alcotest.check Alcotest.(array int) "pcg32 stream"
    [| 878; 931; 578; 555; 241; 383; 330; 714 |] values;
  let rng = Rng.create ~seed:2024 in
  Alcotest.check Alcotest.string "raw 32-bit draws" "bc5d4026 b1a10193 98080d82 dcfccafb"
    (String.concat " "
       (List.init 4 (fun _ -> Printf.sprintf "%08lx" (Rng.bits32 rng))))

let test_instance_golden () =
  let nl = Netlist.random_gola (Rng.create ~seed:1985) ~elements:15 ~nets:150 in
  let arr = Arrangement.create nl in
  Alcotest.check Alcotest.int "identity density" 71 (Arrangement.density arr);
  Alcotest.check Alcotest.int "identity density from the order" 71
    (Arrangement.density_of_order nl (Array.init 15 (fun i -> i)));
  Alcotest.check Alcotest.int "goto density" 59 (Goto.density nl)

(* ---------------------- pinned engine runs ----------------------- *)

(* An event's JSONL line with its wall-clock fields ([Span]/[Run_end]
   seconds) zeroed. *)
let masked_line ev =
  let ev =
    match ev with
    | Obs.Event.Span { name; seconds = _ } -> Obs.Event.Span { name; seconds = 0. }
    | Obs.Event.Run_end { evaluations; final_cost; best_cost; seconds = _ } ->
        Obs.Event.Run_end { evaluations; final_cost; best_cost; seconds = 0. }
    | ev -> ev
  in
  Obs.Json.to_string (Obs.Event.to_json ev)

(* Everything a run's caller can see, as one comparable line: the bits
   of both costs, every counter, and a digest of the masked JSONL event
   stream. *)
let fingerprint run =
  let buf = Buffer.create 4096 in
  let observer =
    Obs.Observer.of_fun (fun ev ->
        Buffer.add_string buf (masked_line ev);
        Buffer.add_char buf '\n')
  in
  let (r : _ Mc_problem.run) = Engine.or_raise (run observer) in
  let s = r.Mc_problem.stats in
  Printf.sprintf "best=%016Lx final=%016Lx evals=%d imp=%d lat=%d up=%d rej=%d temps=%d desc=%d events=%s"
    (Int64.bits_of_float r.Mc_problem.best_cost)
    (Int64.bits_of_float r.Mc_problem.final_cost)
    s.Mc_problem.evaluations s.Mc_problem.improving s.Mc_problem.lateral_accepted
    s.Mc_problem.uphill_accepted s.Mc_problem.rejected
    s.Mc_problem.temperatures_visited s.Mc_problem.descents
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

module Swap = Linarr_problem.Swap

let gola15 () =
  let rng = Rng.create ~seed:7 in
  let nl = Netlist.random_gola rng ~elements:15 ~nets:150 in
  (Arrangement.random rng nl, rng)

let gfun = Gfun.six_temp_annealing
let schedule = Schedule.geometric ~y1:3. ~ratio:0.6 ~k:6
let budget = Budget.Evaluations 3000

(* A short resync cadence, so the pinned delta runs cross several
   full recomputes. *)
let swap_delta = { Swap.delta_ops with Mc_problem.recost_every = 250 }

let delta_opt fast = if fast then Some swap_delta else None

(* A Swap walk under [strategy] from [instance] (default [gola15]). *)
let swap_run ?(instance = gola15) ?(budget = budget) strategy ~fast observer =
  let state, rng = instance () in
  Engine.run (module Swap) ?delta_ops:(delta_opt fast) ~observer strategy ~gfun ~schedule
    ~budget rng state

let tsp_rejectionless observer =
  let rng = Rng.create ~seed:9 in
  let inst = Tsp_instance.random_uniform rng ~n:24 in
  let tour = Tour.random rng inst in
  Engine.run (module Tsp_problem) ~delta_ops:Tsp_problem.delta_ops ~observer
    Engine.Rejectionless ~gfun:Gfun.metropolis ~schedule:(Schedule.constant ~k:1 0.05)
    ~budget:(Budget.Evaluations 4000) rng tour

(* Enough budget for Figure 2 to spend its 100 probes at each of the
   six temperatures and start the schedule over, which the 3000-tick
   runs above never reach. *)
let restart_budget = Budget.Evaluations 40_000

(* A Swap run on both evaluator paths, pinned by one string: densities
   are exact, so the delta path emits the recompute path's event stream,
   event for event. *)
let both_paths name run expected =
  [
    (name ^ "/recompute", (fun () -> fingerprint (run ~fast:false)), expected);
    (name ^ "/delta", (fun () -> fingerprint (run ~fast:true)), expected);
  ]

let pinned_runs =
  both_paths "figure1" (swap_run (Engine.figure1 ()))
    "best=404e800000000000 final=404e800000000000 evals=3000 imp=112 lat=1024 up=101 rej=1763 temps=6 desc=0 events=4588bb17f292fa7f865cde4115e52f49"
  @ both_paths "figure2" (swap_run Engine.Figure2)
      "best=404e800000000000 final=404e800000000000 evals=3000 imp=16 lat=17 up=3 rej=37 temps=1 desc=21 events=c15308b8cbefbdce9e54dc2d6cc820cc"
  @ both_paths "figure2/schedule-restart" (swap_run ~budget:restart_budget Engine.Figure2)
      "best=404e800000000000 final=404e800000000000 evals=40000 imp=60 lat=317 up=26 rej=664 temps=6 desc=344 events=9360dedc764124f624e07e21619ba23f"
  @ both_paths "rejectionless" (swap_run Engine.Rejectionless)
      "best=4051800000000000 final=4051800000000000 evals=3000 imp=5 lat=22 up=2 rej=2971 temps=6 desc=29 events=ac719fd52e4553361e5a85f16fc99a1c"
  @ [
      ( "rejectionless/tsp-2opt",
        (fun () -> fingerprint tsp_rejectionless),
        "best=402653f82b64532b final=402653f82b64532b evals=4000 imp=13 lat=1 up=1 rej=3985 temps=1 desc=15 events=b4f8892b9a8e1dc3e4b78d301341f30a" );
    ]

(* The engines and settings above for any problem, one pinned row per
   (instance, engine) on the recompute path. *)
let pinned_row problem prefix (instance_name, instance) (engine_name, strategy) expected =
  ( Printf.sprintf "%s/%s/%s/recompute" prefix instance_name engine_name,
    (fun () ->
      fingerprint (fun observer ->
          let state, rng = instance () in
          Engine.run problem ~observer (strategy ()) ~gfun ~schedule ~budget rng state)),
    expected )

(* Strategies for any problem: thunks, since a Figure 1 strategy names
   the problem's state type. *)
let f1 = ("figure1", fun () -> Engine.figure1 ())
and f2 = ("figure2", fun () -> Engine.Figure2)
and rl = ("rejectionless", fun () -> Engine.Rejectionless)

(* The single-exchange move ([Linarr_problem.Relocate]) on the paper's
   two instance shapes: two-pin GOLA and 2–5-pin NOLA, 15 elements and
   150 nets. *)
let relocate_row = pinned_row (module Linarr_problem.Relocate) "relocate"

let nola15 () =
  let rng = Rng.create ~seed:7 in
  let nl = Netlist.random_nola rng ~elements:15 ~nets:150 ~min_pins:2 ~max_pins:5 in
  (Arrangement.random rng nl, rng)

let relocate_runs =
  let gola = ("gola15", gola15) and nola = ("nola15", nola15) in
  [
    relocate_row gola f1
      "best=404e800000000000 final=404e800000000000 evals=3000 imp=125 lat=1079 up=111 rej=1685 temps=6 desc=0 events=fb2129aab23068b7ab37b942f124f39f";
    relocate_row gola f2
      "best=4051400000000000 final=4051400000000000 evals=3000 imp=14 lat=8 up=1 rej=7 temps=1 desc=10 events=cf15b5d8603248a17b5ff3eca709274f";
    relocate_row gola rl
      "best=4053000000000000 final=4053000000000000 evals=3000 imp=3 lat=12 up=0 rej=2985 temps=6 desc=15 events=a774fa42fd608831db8d877cda272b94";
    relocate_row nola f1
      "best=405bc00000000000 final=405bc00000000000 evals=3000 imp=147 lat=1273 up=137 rej=1443 temps=6 desc=0 events=505f345655ab48ec10c3d12be317ba5d";
    relocate_row nola f2
      "best=405b800000000000 final=405c000000000000 evals=3000 imp=13 lat=6 up=3 rej=3 temps=1 desc=10 events=07a9df7c0fb1d3ddd2cdb57aa1537ae5";
    relocate_row nola rl
      "best=405cc00000000000 final=405cc00000000000 evals=3000 imp=4 lat=10 up=1 rej=2985 temps=6 desc=15 events=657d36eb96137448a41a1e0ea66817ce";
  ]

(* The other moves and domains that price every move by [apply] and
   [cost], with no delta record: the sum-of-cuts objective on the
   linarr instances above, a balanced bipartition of a 30-element GOLA
   graph, and a 24-element NOLA netlist placed on a 6x6 grid. *)
let gola30 () =
  let rng = Rng.create ~seed:4 in
  let nl = Netlist.random_gola rng ~elements:30 ~nets:90 in
  (Bipartition.random_balanced rng nl, rng)

let nola24 () =
  let rng = Rng.create ~seed:6 in
  let nl = Netlist.random_nola rng ~elements:24 ~nets:60 ~min_pins:2 ~max_pins:4 in
  (Placement.random rng ~rows:6 ~cols:6 nl, rng)

let recompute_runs =
  let sum = pinned_row (module Linarr_problem.Swap_sum_cuts) "sum-of-cuts"
  and part = pinned_row (module Partition_problem) "partition" ("gola30", gola30)
  and place = pinned_row (module Placement.Problem) "placement" ("nola24", nola24) in
  let gola = ("gola15", gola15) and nola = ("nola15", nola15) in
  [
    sum gola f1
      "best=4083180000000000 final=4083180000000000 evals=3000 imp=72 lat=23 up=53 rej=2852 temps=6 desc=0 events=8cddca78fe81e2a5284de1c38b7298c3";
    sum gola f2
      "best=4083280000000000 final=4083280000000000 evals=3000 imp=54 lat=1 up=8 rej=62 temps=1 desc=10 events=3e127e167180996aa84ff9ae0fddafe5";
    sum gola rl
      "best=4084600000000000 final=4084600000000000 evals=3000 imp=25 lat=3 up=1 rej=2971 temps=6 desc=29 events=e16efe8be1666bd4c38c33aba575ab3a";
    sum nola f1
      "best=40915c0000000000 final=40915c0000000000 evals=3000 imp=65 lat=86 up=45 rej=2804 temps=6 desc=0 events=3c4a21e63cd0a47eca76d3463e3d2cca";
    sum nola f2
      "best=40915c0000000000 final=40915c0000000000 evals=3000 imp=34 lat=1 up=7 rej=39 temps=1 desc=9 events=1748f3e5959c461b4af0cb062b0c36eb";
    sum nola rl
      "best=4091640000000000 final=4091640000000000 evals=3000 imp=19 lat=7 up=3 rej=2971 temps=6 desc=29 events=6279d17ffa8b3ab52000753243af56f7";
    part f1
      "best=4038000000000000 final=4038000000000000 evals=3000 imp=224 lat=138 up=232 rej=2406 temps=6 desc=0 events=6a31ef506d8c4551d1800056e5d9921b";
    part f2
      "best=4039000000000000 final=4039000000000000 evals=3000 imp=25 lat=0 up=8 rej=31 temps=1 desc=9 events=8859934f02cf36171527e8fb3c1f10d1";
    part rl
      "best=4042000000000000 final=4042000000000000 evals=3000 imp=6 lat=5 up=3 rej=2986 temps=6 desc=14 events=cce2db783b1b8b5ebc9420fc033a7675";
    place f1
      "best=4069000000000000 final=4069000000000000 evals=3000 imp=162 lat=82 up=122 rej=2634 temps=6 desc=0 events=10d2d963766c82355b9cfd17dd050414";
    place f2
      "best=406b600000000000 final=406b600000000000 evals=3000 imp=40 lat=0 up=0 rej=0 temps=1 desc=1 events=0564df7d690f14253fe1f98cac5fe96f";
    place rl
      "best=4072f00000000000 final=4072f00000000000 evals=3000 imp=6 lat=0 up=0 rej=2994 temps=6 desc=6 events=ffdcb6841e52b48414f469fd78025673";
  ]

(* The ledger's linear-arrangement size (linarr-n600): Figure 1 on a
   600-element NOLA instance with 1500 nets of 3-6 pins, the swap on
   both evaluator paths and the relocate on the recompute path.  These
   pin the density trial bit for bit where the ledger times it. *)
let nola600 () =
  let rng = Rng.create ~seed:600 in
  let nl = Netlist.random_nola rng ~elements:600 ~nets:1500 ~min_pins:3 ~max_pins:6 in
  (Arrangement.random rng nl, rng)

let nola600_runs =
  both_paths "nola600/figure1" (swap_run ~instance:nola600 (Engine.figure1 ()))
    "best=4092000000000000 final=4092000000000000 evals=3000 imp=265 lat=1667 up=162 rej=906 temps=6 desc=0 events=d24959f4d6425a026a6a4cb2abce5cd1"
  @ [
    relocate_row ("nola600", nola600) f1
      "best=4092180000000000 final=4092180000000000 evals=3000 imp=295 lat=1768 up=181 rej=756 temps=6 desc=0 events=3bb4311346f473a4d988a68cd88bf1a9";
  ]

(* The ledger's TSP size: Figure 1 on a 1000-city tour, both evaluator
   paths, and the report of a full 21-class race on the same instance.
   These pin the 2-opt pricing bit for bit where the ledger times it. *)
let tsp1000 () = Tsp_instance.random_uniform (Rng.create ~seed:1000) ~n:1000

let tsp1000_figure1 ~fast observer =
  let rng = Rng.create ~seed:21 in
  let tour = Tour.random rng (tsp1000 ()) in
  let delta_ops = if fast then Some Tsp_problem.delta_ops else None in
  Engine.run (module Tsp_problem) ?delta_ops ~observer (Engine.figure1 ()) ~gfun
    ~schedule:(Schedule.geometric ~y1:0.2 ~ratio:0.6 ~k:6) ~budget:(Budget.Evaluations 20_000)
    rng tour

let tsp1000_race () =
  let inst = tsp1000 () in
  let jobs =
    List.map
      (fun g ->
        Portfolio.Job.figure1
          (module Tsp_problem)
          ~delta_ops:Tsp_problem.delta_ops ~label:(Gfun.name g) ~gfun:g
          ~schedule:(Gfun.schedule g 1.0)
          ~make_state:(fun rng -> Tour.random rng inst)
          ())
      (Gfun.catalog ~m:1)
  in
  let report =
    Portfolio.race ~domains:1 (Rng.create ~seed:22)
      ~initial_budget:(Budget.Evaluations 500) jobs
  in
  Printf.sprintf "evals=%d report=%s" report.Portfolio.total_evaluations
    (Digest.to_hex (Digest.string (Obs.Json.to_string (Portfolio.report_to_json report))))

let tsp1000_runs =
  [
    ( "tsp1000/figure1/recompute",
      (fun () -> fingerprint (tsp1000_figure1 ~fast:false)),
      "best=4062deb50bf92145 final=4062df588622def3 evals=20000 imp=2812 lat=0 up=1386 rej=15802 temps=6 desc=0 events=a2aab01e9b6242e131f9ad13a251c630" );
    ( "tsp1000/figure1/delta",
      (fun () -> fingerprint (tsp1000_figure1 ~fast:true)),
      "best=4062deb50bf92145 final=4062df588622def3 evals=20000 imp=2812 lat=0 up=1386 rej=15802 temps=6 desc=0 events=a2aab01e9b6242e131f9ad13a251c630" );
    ("tsp1000/race", tsp1000_race, "evals=61500 report=29e85b29b06bd4e93cf3994151343b4c");
  ]

let pinned_case (name, run, expected) =
  case ("pinned run: " ^ name) (fun () ->
      Alcotest.check Alcotest.string name expected (run ()))

let test_engine_replay_identical () =
  (* The same configuration must replay bit-identically within a
     process too; this is the property EXPERIMENTS.md's tables rest
     on. *)
  Alcotest.check Alcotest.string "six-temp replay"
    (fingerprint (swap_run (Engine.figure1 ()) ~fast:false))
    (fingerprint (swap_run (Engine.figure1 ()) ~fast:false))

let test_cross_substrate_replay () =
  let run_tsp () =
    let rng = Rng.create ~seed:31 in
    let inst = Tsp_instance.random_uniform rng ~n:30 in
    let t = Tour.random rng inst in
    (Engine.or_raise
       (Engine.run (module Tsp_problem) (Engine.figure1 ()) ~gfun:Gfun.metropolis
          ~schedule:(Schedule.of_array [| 0.05 |]) ~budget:(Budget.Evaluations 3000) rng t))
      .Mc_problem.best_cost
  in
  Alcotest.check (Alcotest.float 0.) "tsp replay" (run_tsp ()) (run_tsp ());
  let run_part () =
    let rng = Rng.create ~seed:32 in
    let nl = Netlist.random_gola rng ~elements:30 ~nets:90 in
    let part = Bipartition.random_balanced rng nl in
    (Engine.or_raise
       (Engine.run (module Partition_problem) (Engine.figure1 ()) ~gfun:Gfun.g_one
          ~schedule:(Schedule.constant ~k:1 1.) ~budget:(Budget.Evaluations 3000) rng part))
      .Mc_problem.best_cost
  in
  Alcotest.check (Alcotest.float 0.) "partition replay" (run_part ()) (run_part ())

let test_suite_totals_locked () =
  (* The headline constants quoted in EXPERIMENTS.md. *)
  let optimum (s : Suites.linarr_suite) =
    Array.fold_left (fun acc nl -> acc + Linarr_exact.optimal_density nl) 0 s.Suites.netlists
  in
  let gola = Suites.gola () in
  Alcotest.check Alcotest.int "GOLA starting total" 2457 (Suites.total_initial_density gola);
  Alcotest.check Alcotest.int "GOLA Goto total" 1882 (Suites.total_goto_density gola);
  Alcotest.check Alcotest.int "GOLA optimum total" 1813 (optimum gola);
  let nola = Suites.nola () in
  Alcotest.check Alcotest.int "NOLA starting total" 3685 (Suites.total_initial_density nola);
  Alcotest.check Alcotest.int "NOLA Goto total" 3296 (Suites.total_goto_density nola);
  Alcotest.check Alcotest.int "NOLA optimum total" 3226 (optimum nola)

let suite =
  [
    case "rng stream stable" test_rng_stream;
    case "canonical instance stable" test_instance_golden;
    case "engine replay identical" test_engine_replay_identical;
    case "cross-substrate replay identical" test_cross_substrate_replay;
    case "suite totals locked (EXPERIMENTS.md constants)" test_suite_totals_locked;
  ]
  @ List.map pinned_case (pinned_runs @ relocate_runs @ recompute_runs @ nola600_runs @ tsp1000_runs)
