(* The work-stealing pool and the portfolio scheduler.

   The determinism tests pin one seed and assert byte-identical
   reports across domain counts — the whole point of splitting every
   job's RNG stream before any job runs.  See test/README.md for the
   pinned-seed convention. *)

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------ Pool ----------------------------- *)

let test_pool_map_covers_every_index () =
  let pool = Pool.create ~domains:3 () in
  let got = Pool.map pool (fun ~worker:_ i -> i * i) 17 in
  Alcotest.(check (array int)) "every task ran once"
    (Array.init 17 (fun i -> i * i))
    got

let test_pool_more_domains_than_tasks () =
  let pool = Pool.create ~domains:8 () in
  Alcotest.check Alcotest.int "cap recorded" 8 (Pool.domains pool);
  let got = Pool.map pool (fun ~worker:_ i -> 10 * i) 3 in
  Alcotest.(check (array int)) "3 tasks on 8 domains" [| 0; 10; 20 |] got

let test_pool_zero_tasks () =
  let pool = Pool.create ~domains:4 () in
  let called = ref false in
  ignore (Pool.map pool (fun ~worker:_ _ -> called := true) 0);
  Alcotest.check Alcotest.bool "f never called" false !called

let test_pool_validation () =
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Pool.create: domains <= 0") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  let pool = Pool.create ~domains:2 () in
  Alcotest.check_raises "negative task count rejected"
    (Invalid_argument "Pool.map: negative task count") (fun () ->
      ignore (Pool.map pool (fun ~worker:_ _ -> ()) (-1)))

(* The failure rule: the lowest-indexed *recorded* failure is
   re-raised.  Which tasks even start after a failure depends on
   scheduling, so the deterministic checks are (a) a lone failing task
   is re-raised whatever the domain count — nothing cancels anything
   before it — and (b) with one worker the tasks run strictly in index
   order, so of several failing tasks the first one wins. *)
let test_pool_lowest_index_failure () =
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Alcotest.check_raises
        (Printf.sprintf "lone failure surfaces at %d domains" domains)
        (Failure "boom 7")
        (fun () ->
          ignore
            (Pool.map pool
               (fun ~worker:_ i -> if i = 7 then failwith (Printf.sprintf "boom %d" i))
               12)))
    [ 1; 2; 4 ];
  let pool = Pool.create ~domains:1 () in
  Alcotest.check_raises "first of many failures wins on one worker"
    (Failure "boom 3")
    (fun () ->
      ignore
        (Pool.map pool
           (fun ~worker:_ i -> if i >= 3 then failwith (Printf.sprintf "boom %d" i))
           12))

(* --------------------------- Portfolio --------------------------- *)

(* The paper's own portfolio: all 21 g-classes on one TSP instance.
   Everything is materialized from pinned seeds inside the call, so
   each invocation is an independent, reproducible race. *)
let tsp_jobs ~n =
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:9) ~n in
  List.map
    (fun g ->
      Portfolio.Job.figure1
        (module Tsp_problem)
        ~delta_ops:Tsp_problem.delta_ops ~label:(Gfun.name g) ~gfun:g
        ~schedule:(Schedule.constant ~k:(Gfun.k g) 2.)
        ~make_state:(fun rng -> Tour.random rng inst)
        ())
    (Gfun.catalog ~m:n)

let race_report ?deadline ~domains () =
  Portfolio.race ~domains ?deadline (Rng.create ~seed:10)
    ~initial_budget:(Budget.Evaluations 150) (tsp_jobs ~n:16)

let json_of report = Obs.Json.to_string (Portfolio.report_to_json report)

let test_race_deterministic_across_domains () =
  let reference = json_of (race_report ~domains:1 ()) in
  List.iter
    (fun domains ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "report at %d domains = report at 1 domain" domains)
        reference
        (json_of (race_report ~domains ())))
    [ 2; 4 ]

let test_race_structure () =
  let r = race_report ~domains:2 () in
  Alcotest.check Alcotest.string "mode" "race" r.Portfolio.mode;
  Alcotest.check Alcotest.int "job count" 21 r.Portfolio.jobs;
  Alcotest.check Alcotest.bool "ran to one survivor" false
    r.Portfolio.stopped_early;
  (* ceil-halving from 21: 21 -> 11 -> 6 -> 3 -> 2 -> 1. *)
  Alcotest.(check (list int))
    "survivors per rung" [ 21; 11; 6; 3; 2 ]
    (List.map
       (fun rd -> List.length rd.Portfolio.results)
       r.Portfolio.rounds);
  Alcotest.(check (list int))
    "budget doubles per rung"
    [ 150; 300; 600; 1200; 2400 ]
    (List.map (fun rd -> rd.Portfolio.budget_evaluations) r.Portfolio.rounds);
  List.iteri
    (fun i rd ->
      Alcotest.check Alcotest.int "rung numbering" (i + 1) rd.Portfolio.index;
      let costs = List.map (fun s -> s.Portfolio.cost) rd.Portfolio.results in
      Alcotest.check Alcotest.bool "rung ranked best-first" true
        (List.sort compare costs = costs))
    r.Portfolio.rounds;
  let last = List.nth r.Portfolio.rounds (List.length r.Portfolio.rounds - 1) in
  Alcotest.check Alcotest.string "winner leads the last rung"
    (List.hd last.Portfolio.results).Portfolio.label r.Portfolio.winner.Portfolio.label;
  let expected_total =
    List.fold_left
      (fun acc rd ->
        List.fold_left
          (fun acc s -> acc + s.Portfolio.evaluations)
          acc rd.Portfolio.results)
      0 r.Portfolio.rounds
  in
  Alcotest.check Alcotest.int "total_evaluations sums every run"
    expected_total r.Portfolio.total_evaluations

let test_sweep_winner_is_minimum () =
  let r =
    Portfolio.sweep ~domains:2 (Rng.create ~seed:10)
      ~budget:(Budget.Evaluations 400) (tsp_jobs ~n:16)
  in
  Alcotest.check Alcotest.string "mode" "sweep" r.Portfolio.mode;
  Alcotest.check Alcotest.int "one round" 1 (List.length r.Portfolio.rounds);
  let standings = (List.hd r.Portfolio.rounds).Portfolio.results in
  Alcotest.check Alcotest.int "every job ran" 21 (List.length standings);
  let best =
    List.fold_left
      (fun acc s -> Float.min acc s.Portfolio.cost)
      infinity standings
  in
  Alcotest.check (Alcotest.float 0.) "winner is the minimum" best
    r.Portfolio.winner.Portfolio.cost

let test_race_deadline_stops_early () =
  (* An Evaluations deadline of 1 is blown by the very first rung, so
     the race stops with many survivors and the rung-1 leader wins. *)
  let r = race_report ~deadline:(Budget.Evaluations 1) ~domains:2 () in
  Alcotest.check Alcotest.bool "stopped early" true r.Portfolio.stopped_early;
  Alcotest.check Alcotest.int "one rung ran" 1 (List.length r.Portfolio.rounds);
  let first = List.hd r.Portfolio.rounds in
  Alcotest.check Alcotest.string "leader of rung 1 wins"
    (List.hd first.Portfolio.results).Portfolio.label
    r.Portfolio.winner.Portfolio.label;
  (* Deadline handling is evaluation-counted, hence deterministic. *)
  Alcotest.check Alcotest.string "deadline race reproducible"
    (json_of r)
    (json_of (race_report ~deadline:(Budget.Evaluations 1) ~domains:1 ()))

let test_race_deadline_inclusive () =
  (* Rung 1 spends 21 jobs x 150 evaluations.  A deadline of exactly
     that count is reached after rung 1; one evaluation more is not,
     so rung 2 runs too. *)
  let rung1 = 21 * 150 in
  let rounds deadline =
    List.length (race_report ~deadline:(Budget.Evaluations deadline) ~domains:2 ()).Portfolio.rounds
  in
  Alcotest.check Alcotest.int "deadline = rung 1's evaluations" 1 (rounds rung1);
  Alcotest.check Alcotest.int "one evaluation past rung 1" 2 (rounds (rung1 + 1))

(* Failure containment: a walker whose cost turns NaN mid-walk aborts
   and competes with its partial; one whose initial cost is already
   NaN cannot start and is scored infinity with zero evaluations. *)
module Fuse = struct
  type state = { mutable x : int; mutable evals_left : int }
  type move = int

  let cost s =
    s.evals_left <- s.evals_left - 1;
    if s.evals_left < 0 then Float.nan else float_of_int (abs s.x)

  let random_move rng _ = if Rng.bool rng then 1 else -1
  let apply s m = s.x <- s.x + m
  let revert s m = s.x <- s.x - m
  let copy s = { s with x = s.x }
  let moves _ = List.to_seq [ -1; 1 ]
end

let fuse_job ~label ~evals_left =
  Portfolio.Job.figure1
    (module Fuse)
    ~label ~gfun:Gfun.metropolis
    ~schedule:(Schedule.of_array [| 1. |])
    ~make_state:(fun _ -> { Fuse.x = 8; evals_left })
    ()

let test_race_contains_failures () =
  let jobs =
    [
      fuse_job ~label:"steady" ~evals_left:max_int;
      fuse_job ~label:"mid-walk abort" ~evals_left:40;
      fuse_job ~label:"stillborn" ~evals_left:0;
    ]
  in
  let r =
    Portfolio.race ~domains:2 (Rng.create ~seed:3)
      ~initial_budget:(Budget.Evaluations 100) jobs
  in
  Alcotest.check Alcotest.string "healthy job wins" "steady"
    r.Portfolio.winner.Portfolio.label;
  let first = List.hd r.Portfolio.rounds in
  let standing label =
    List.find (fun s -> s.Portfolio.label = label) first.Portfolio.results
  in
  let aborted = standing "mid-walk abort" in
  Alcotest.check Alcotest.bool "abort reason recorded" true
    (aborted.Portfolio.failure <> None);
  Alcotest.check Alcotest.bool "partial best survives the abort" true
    (Float.is_finite aborted.Portfolio.cost);
  Alcotest.check Alcotest.bool "partial consumed budget" true
    (aborted.Portfolio.evaluations > 0);
  let dead = standing "stillborn" in
  Alcotest.check (Alcotest.float 0.) "stillborn scored infinity" infinity
    dead.Portfolio.cost;
  Alcotest.check Alcotest.int "stillborn consumed nothing" 0
    dead.Portfolio.evaluations;
  Alcotest.(check (list string))
    "stillborn culled first" [ "stillborn" ] first.Portfolio.culled

let test_validation () =
  Alcotest.check_raises "empty portfolio rejected"
    (Invalid_argument "Portfolio.sweep: no jobs") (fun () ->
      ignore
        (Portfolio.sweep (Rng.create ~seed:1) ~budget:(Budget.Evaluations 1) []));
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Pool.create: domains <= 0") (fun () ->
      ignore
        (Portfolio.sweep ~domains:0 (Rng.create ~seed:1)
           ~budget:(Budget.Evaluations 1)
           [ fuse_job ~label:"one" ~evals_left:max_int ]));
  Alcotest.check_raises "schedule length checked at job build"
    (Invalid_argument
       "Figure1.params: schedule length 2 but Metropolis expects k = 1")
    (fun () ->
      ignore
        (Portfolio.Job.figure1
           (module Fuse)
           ~label:"bad" ~gfun:Gfun.metropolis
           ~schedule:(Schedule.of_array [| 1.; 2. |])
           ~make_state:(fun _ -> { Fuse.x = 0; evals_left = max_int })
           ()))

(* A sweep's per-job standings, its winner and its evaluation total
   must not depend on how many domains ran the jobs. *)
let test_sweep_identical_across_domains () =
  let report domains =
    Portfolio.sweep ~domains (Rng.create ~seed:21) ~budget:(Budget.Evaluations 300)
      (List.init 5 (fun i ->
           Portfolio.Job.figure1
             (module Fuse)
             ~label:(string_of_int i) ~gfun:Gfun.metropolis
             ~schedule:(Schedule.of_array [| 1. |])
             ~make_state:(fun _ -> { Fuse.x = 20 + i; evals_left = max_int })
             ()))
  in
  let costs r =
    List.map
      (fun s -> (s.Portfolio.label, s.Portfolio.cost))
      (List.hd r.Portfolio.rounds).Portfolio.results
  in
  let base = report 1 in
  List.iter
    (fun domains ->
      let r = report domains in
      Alcotest.(check (list (pair string (float 0.))))
        (Printf.sprintf "job costs identical at %d domains" domains)
        (costs base) (costs r);
      Alcotest.check (Alcotest.float 0.) "best identical"
        base.Portfolio.winner.Portfolio.cost r.Portfolio.winner.Portfolio.cost;
      Alcotest.check Alcotest.int "evaluations identical"
        base.Portfolio.total_evaluations r.Portfolio.total_evaluations)
    [ 2; 4 ]

(* Arrangements at n = 15 price from their netlist's table of subset
   cuts, built by the first trial on it.  A two-domain race on a fresh
   parse has jobs start on both domains at once, so the two may both
   build it; the report must still equal a one-domain race on a second
   fresh parse, and each netlist keeps its own table. *)
let test_race_builds_cut_table_safely () =
  let text =
    Netlist.to_string
      (Netlist.random_nola (Rng.create ~seed:24) ~elements:15 ~nets:150 ~min_pins:2
         ~max_pins:5)
  in
  let parse () = match Netlist.of_string text with Ok nl -> nl | Error e -> failwith e in
  let race ~domains nl =
    Portfolio.race ~domains (Rng.create ~seed:11) ~initial_budget:(Budget.Evaluations 400)
      (List.map
         (fun g ->
           Portfolio.Job.figure1
             (module Linarr_problem.Swap)
             ~delta_ops:Linarr_problem.Swap.delta_ops ~label:(Gfun.name g) ~gfun:g
             ~schedule:(Schedule.constant ~k:(Gfun.k g) 1.)
             ~make_state:(fun rng -> Arrangement.random rng nl)
             ())
         (Gfun.catalog ~m:150))
  in
  let a = parse () and b = parse () in
  Alcotest.check Alcotest.string "2 domains on a fresh netlist = 1 domain on another"
    (json_of (race ~domains:1 b))
    (json_of (race ~domains:2 a));
  Alcotest.check Alcotest.bool "each netlist holds its own table" false
    (Netlist.cut_table a == Netlist.cut_table b)

let suite =
  [
    case "pool: map covers every index" test_pool_map_covers_every_index;
    case "pool: more domains than tasks" test_pool_more_domains_than_tasks;
    case "pool: zero tasks" test_pool_zero_tasks;
    case "pool: argument validation" test_pool_validation;
    case "pool: lowest-index failure re-raised" test_pool_lowest_index_failure;
    case "race: byte-identical across domains" test_race_deterministic_across_domains;
    case "race: successive-halving structure" test_race_structure;
    case "sweep: winner is the minimum" test_sweep_winner_is_minimum;
    case "race: deadline stops early, deterministically" test_race_deadline_stops_early;
    case "race: the deadline is reached at its evaluation count" test_race_deadline_inclusive;
    case "race: failures contained per job" test_race_contains_failures;
    case "portfolio: argument validation" test_validation;
    case "sweep: identical across domains" test_sweep_identical_across_domains;
    case "race: two domains build a netlist's cut table safely" test_race_builds_cut_table_safely;
  ]
