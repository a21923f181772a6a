(* The observability layer: JSON round-trips, the event taxonomy, the
   trajectory recorder's compaction invariants, histograms, metrics,
   sinks, and — most importantly — that instrumented engine runs emit
   event streams whose counts reconcile exactly with the returned
   statistics. *)

let case name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Same tiny walker the engine tests use. *)
module Line = struct
  type state = { mutable x : int; cost_fn : int -> float }
  type move = int

  let cost s = s.cost_fn s.x
  let random_move rng _ = if Rng.bool rng then 1 else -1
  let apply s m = s.x <- s.x + m
  let revert s m = s.x <- s.x - m
  let copy s = { s with x = s.x }
  let moves _ = List.to_seq [ -1; 1 ]
end

module F1 = Figure1.Make (Line)
module F2 = Figure2.Make (Line)
module RL = Rejectionless.Make (Line)

let vee x = float_of_int (abs x)

(* ------------------------------- Json ---------------------------- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("true", Bool true);
          ("ints", List [ Int 0; Int (-3); Int max_int ]);
          ("floats", List [ Float 0.1; Float (-1e-300); Float 12345.0 ]);
          ("str", String "line1\nline2 \"quoted\" \\ tab\t end");
          ("empty_list", List []);
          ("empty_obj", Obj []);
        ])
  in
  match Obs.Json.parse (Obs.Json.to_string v) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok v' ->
      Alcotest.check Alcotest.bool "value survives print/parse" true (v = v')

let test_json_float_fidelity () =
  List.iter
    (fun f ->
      let s = Obs.Json.to_string (Obs.Json.Float f) in
      match Obs.Json.parse s with
      | Ok (Obs.Json.Float f') ->
          Alcotest.check (Alcotest.float 0.) (Printf.sprintf "%h survives" f) f f'
      | Ok (Obs.Json.Int i) ->
          Alcotest.check (Alcotest.float 0.) (Printf.sprintf "%h survives as int" f)
            f (float_of_int i)
      | Ok _ -> Alcotest.failf "%s parsed to a non-number" s
      | Error msg -> Alcotest.failf "%s failed to parse: %s" s msg)
    [ 0.; 1.5; -2.25; Float.pi; 1. /. 3.; 1e22; 5e-324; 1.0000000000000002 ]

let test_json_nonfinite_is_null () =
  Alcotest.check Alcotest.string "nan -> null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.check Alcotest.string "inf -> null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* ------------------------------ Event ---------------------------- *)

let all_events =
  Obs.Event.
    [
      Run_start { cost = 119. };
      Proposed { evaluation = 1; cost = 124.; kind = None };
      Proposed { evaluation = 2; cost = 118.; kind = Some "2opt" };
      Accepted { kind = Improving; cost = 117.; delta = -2. };
      Accepted { kind = Lateral; cost = 117.; delta = 0. };
      Accepted { kind = Uphill; cost = 120.; delta = 3. };
      Rejected { delta = 5. };
      New_best { evaluation = 42; cost = 107. };
      Temp_advance { temp = 3; y = 0.81 };
      Descent_done { cost = 110.; evaluations = 999 };
      Span { name = "temp:3"; seconds = 0.125 };
      Run_end { evaluations = 20000; final_cost = 110.; best_cost = 107.; seconds = 0.5 };
      Checkpoint_written { path = "ckpt.json"; evaluation = 1000 };
      Retry { label = "run-3"; attempt = 2; delay = 0.25; reason = "Fault injected" };
      Quarantined { label = "run-3"; attempts = 4; reason = "deadline exceeded" };
      Rung_standing
        { rung = 2; label = "tsp-128#3"; best_cost = 107.5; evaluations = 4000; culled = true };
    ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Obs.Event.of_json (Obs.Event.to_json ev) with
      | Ok ev' -> Alcotest.check Alcotest.bool "event survives" true (ev = ev')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    all_events

let test_event_bad_json () =
  List.iter
    (fun s ->
      let json = Result.get_ok (Obs.Json.parse s) in
      match Obs.Event.of_json json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not decode" s)
    [
      {|{"ev":"wat"}|};
      {|{"cost":1.0}|};
      {|{"ev":"proposed","n":1}|};
      {|{"ev":"accepted","kind":"sideways","cost":1.0,"delta":0.0}|};
    ]

(* ------------------------- Trajectory (Recorder) ------------------ *)

(* The compaction invariants the ISSUE names: indices strictly
   increasing, len <= capacity, minimum exact. *)
let prop_trajectory_invariants =
  QCheck.Test.make ~name:"qcheck: Trajectory compaction invariants"
    QCheck.(pair (int_range 2 40) (int_range 0 5000))
    (fun (capacity, n) ->
      let t = Obs.Trajectory.create capacity in
      let true_min = ref infinity in
      let st = ref 12345 in
      for i = 0 to n - 1 do
        (* Cheap deterministic pseudo-random walk of costs. *)
        st := (!st * 1103515245) + 12345 + i;
        let c = float_of_int (abs (!st mod 1000)) in
        if c < !true_min then true_min := c;
        Obs.Trajectory.record t c
      done;
      let series = Obs.Trajectory.series t in
      let increasing = ref true in
      Array.iteri
        (fun i (idx, _) ->
          if i > 0 then begin
            let prev, _ = series.(i - 1) in
            if idx <= prev then increasing := false
          end)
        series;
      !increasing
      && Array.length series <= capacity
      && Obs.Trajectory.count t = n
      && (n = 0 || Obs.Trajectory.minimum t = !true_min))

let test_trajectory_observer_records () =
  let t = Obs.Trajectory.create 16 in
  let o = Obs.Trajectory.observer t in
  Obs.Observer.emit o (Obs.Event.Run_start { cost = 9. });
  Obs.Observer.emit o (Obs.Event.Proposed { evaluation = 1; cost = 5.; kind = None });
  Obs.Observer.emit o (Obs.Event.Rejected { delta = 1. });
  Obs.Observer.emit o (Obs.Event.Proposed { evaluation = 2; cost = 7.; kind = None });
  Alcotest.check Alcotest.int "initial + 2 proposals" 3 (Obs.Trajectory.count t);
  Alcotest.check (Alcotest.float 0.) "minimum" 5. (Obs.Trajectory.minimum t)

(* ------------------------------ Log_hist -------------------------- *)

let test_log_hist_boundaries () =
  (* Base 2: bucket i covers [2^i, 2^{i+1}). *)
  List.iter
    (fun (v, want) ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "bucket of %g" v)
        want
        (Obs.Log_hist.bucket_index ~base:2. v))
    [
      (1., 0); (1.5, 0); (1.999, 0); (2., 1); (3.999, 1); (4., 2); (0.5, -1);
      (0.25, -2); (0.75, -1); (1024., 10); (1023.999, 9);
    ];
  let h = Obs.Log_hist.create () in
  List.iter (Obs.Log_hist.add h) [ 1.; 1.5; 2.; 3.; 4.; 0.5; -1.; 0.; Float.nan ];
  Alcotest.check Alcotest.int "six bucketed" 6 (Obs.Log_hist.count h);
  Alcotest.check Alcotest.int "three underflow" 3 (Obs.Log_hist.underflow h);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sparse buckets ascending"
    [ (-1, 1); (0, 2); (1, 2); (2, 1) ]
    (Obs.Log_hist.buckets h);
  let lo, hi = Obs.Log_hist.bounds h 1 in
  Alcotest.check (Alcotest.float 0.) "lo" 2. lo;
  Alcotest.check (Alcotest.float 0.) "hi" 4. hi

let test_log_hist_merge () =
  let a = Obs.Log_hist.create () and b = Obs.Log_hist.create () in
  let xs = [ 1.; 3.; 9. ] and ys = [ 2.; 3.; 100.; -1. ] in
  List.iter (Obs.Log_hist.add a) xs;
  List.iter (Obs.Log_hist.add b) ys;
  let m = Obs.Log_hist.merge a b in
  Alcotest.check Alcotest.int "counts add" 6 (Obs.Log_hist.count m);
  Alcotest.check Alcotest.int "underflows add" 1 (Obs.Log_hist.underflow m);
  let direct = Obs.Log_hist.create () in
  List.iter (Obs.Log_hist.add direct) (xs @ List.filter (fun v -> v > 0.) ys);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "buckets match a direct tally"
    (Obs.Log_hist.buckets direct) (Obs.Log_hist.buckets m);
  Alcotest.check (Alcotest.float 1e-9) "merged mean" (Obs.Log_hist.mean direct)
    (Obs.Log_hist.mean m);
  Alcotest.check (Alcotest.float 1e-9) "merged stddev" (Obs.Log_hist.stddev direct)
    (Obs.Log_hist.stddev m);
  (* Merging must not disturb the inputs. *)
  Alcotest.check Alcotest.int "a untouched" 3 (Obs.Log_hist.count a);
  Alcotest.check Alcotest.bool "base mismatch rejected" true
    (try
       ignore (Obs.Log_hist.merge a (Obs.Log_hist.create ~base:10. ()));
       false
     with Invalid_argument _ -> true)

let test_online_merge () =
  let xs = [ 1.; 2.; 5.5; -3.; 8. ] and ys = [ 0.5; 10.; -2. ] in
  let a = Stats.Online.create () and b = Stats.Online.create () in
  List.iter (Stats.Online.add a) xs;
  List.iter (Stats.Online.add b) ys;
  let m = Stats.Online.merge a b in
  let direct = Stats.Online.create () in
  List.iter (Stats.Online.add direct) (xs @ ys);
  Alcotest.check Alcotest.int "count" (Stats.Online.count direct) (Stats.Online.count m);
  Alcotest.check (Alcotest.float 1e-9) "mean" (Stats.Online.mean direct)
    (Stats.Online.mean m);
  Alcotest.check (Alcotest.float 1e-9) "variance" (Stats.Online.variance direct)
    (Stats.Online.variance m);
  Alcotest.check (Alcotest.float 0.) "min" (Stats.Online.min direct) (Stats.Online.min m);
  Alcotest.check (Alcotest.float 0.) "max" (Stats.Online.max direct) (Stats.Online.max m);
  (* Merging with an empty side is the identity. *)
  let empty = Stats.Online.create () in
  let m2 = Stats.Online.merge a empty in
  Alcotest.check (Alcotest.float 1e-12) "merge with empty keeps mean"
    (Stats.Online.mean a) (Stats.Online.mean m2)

(* ------------------------------- Ring ----------------------------- *)

let test_ring () =
  let r = Obs.Ring.create 3 in
  let o = Obs.Ring.observer r in
  for i = 1 to 5 do
    Obs.Observer.emit o
      (Obs.Event.Proposed { evaluation = i; cost = float_of_int i; kind = None })
  done;
  Alcotest.check Alcotest.int "seen all" 5 (Obs.Ring.seen r);
  Alcotest.check Alcotest.int "keeps capacity" 3 (Obs.Ring.length r);
  let kept =
    List.map
      (function Obs.Event.Proposed { evaluation; _ } -> evaluation | _ -> -1)
      (Obs.Ring.to_list r)
  in
  Alcotest.check (Alcotest.list Alcotest.int) "latest three, oldest first" [ 3; 4; 5 ] kept;
  Alcotest.check Alcotest.bool "zero capacity rejected" true
    (try
       ignore (Obs.Ring.create 0);
       false
     with Invalid_argument _ -> true)

(* ---------------------------- Observer ---------------------------- *)

let test_observer_tee_and_null () =
  Alcotest.check Alcotest.bool "null disabled" false (Obs.Observer.enabled Obs.null);
  Alcotest.check Alcotest.bool "tee of nulls collapses" false
    (Obs.Observer.enabled (Obs.Observer.tee [ Obs.null; Obs.null ]));
  let a = Obs.Ring.create 8 and b = Obs.Ring.create 8 in
  let t = Obs.Observer.tee [ Obs.Ring.observer a; Obs.null; Obs.Ring.observer b ] in
  Obs.Observer.emit t (Obs.Event.Run_start { cost = 1. });
  Obs.Observer.emit t (Obs.Event.Rejected { delta = 1. });
  Alcotest.check Alcotest.int "a sees both" 2 (Obs.Ring.seen a);
  Alcotest.check Alcotest.int "b sees both" 2 (Obs.Ring.seen b)

(* --------------------------- Downsample --------------------------- *)

let test_downsample () =
  let r = Obs.Ring.create 100_000 in
  let o = Obs.Downsample.observer ~capacity:8 (Obs.Ring.observer r) in
  let n = 10_000 in
  for i = 1 to n do
    Obs.Observer.emit o
      (Obs.Event.Proposed { evaluation = i; cost = float_of_int i; kind = None })
  done;
  Obs.Observer.emit o (Obs.Event.Run_end
                         { evaluations = n; final_cost = 0.; best_cost = 0.; seconds = 0. });
  let events = Obs.Ring.to_list r in
  let proposed =
    List.length
      (List.filter (function Obs.Event.Proposed _ -> true | _ -> false) events)
  in
  (* Stride doubling: at most capacity forwards per stride level, and
     log2(10000) < 14 levels. *)
  Alcotest.check Alcotest.bool
    (Printf.sprintf "thinned (%d forwarded)" proposed)
    true
    (proposed <= 8 * 14 && proposed >= 8);
  (match events with
  | Obs.Event.Proposed { evaluation = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "first proposal forwarded");
  (match List.rev events with
  | Obs.Event.Run_end _ :: _ -> ()
  | _ -> Alcotest.fail "non-proposal passed through")

(* ----------------------------- Metrics ---------------------------- *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr ~by:4 m "a";
  Obs.Metrics.set_gauge m "g" 2.5;
  Obs.Metrics.observe m "h" 3.;
  Alcotest.check Alcotest.int "counter" 5 (Obs.Metrics.counter m "a");
  Alcotest.check Alcotest.int "unknown counter is 0" 0 (Obs.Metrics.counter m "nope");
  Alcotest.check (Alcotest.option (Alcotest.float 0.)) "gauge" (Some 2.5)
    (Obs.Metrics.gauge m "g");
  Alcotest.check Alcotest.bool "histogram exists" true
    (Obs.Metrics.histogram m "h" <> None);
  Alcotest.check (Alcotest.list Alcotest.string) "names sorted" [ "a"; "g"; "h" ]
    (Obs.Metrics.names m);
  Alcotest.check Alcotest.bool "kind clash rejected" true
    (try
       Obs.Metrics.incr m "g";
       false
     with Invalid_argument _ -> true)

let test_metrics_observer_standard_set () =
  let m = Obs.Metrics.create () in
  let o = Obs.Metrics.observer m in
  List.iter (Obs.Observer.emit o)
    Obs.Event.
      [
        Run_start { cost = 10. };
        Temp_advance { temp = 1; y = 1. };
        Proposed { evaluation = 1; cost = 9.; kind = None };
        Accepted { kind = Improving; cost = 9.; delta = -1. };
        New_best { evaluation = 1; cost = 9. };
        Proposed { evaluation = 2; cost = 12.; kind = Some "2opt" };
        Rejected { delta = 3. };
        Temp_advance { temp = 2; y = 0.9 };
        Proposed { evaluation = 3; cost = 11.; kind = None };
        Accepted { kind = Uphill; cost = 11.; delta = 2. };
        Span { name = "temp:2"; seconds = 0.25 };
        Run_end { evaluations = 3; final_cost = 11.; best_cost = 9.; seconds = 0.5 };
      ];
  Alcotest.check Alcotest.int "proposed" 3 (Obs.Metrics.counter m "proposed");
  Alcotest.check Alcotest.int "improving" 1 (Obs.Metrics.counter m "accepted.improving");
  Alcotest.check Alcotest.int "uphill" 1 (Obs.Metrics.counter m "accepted.uphill");
  Alcotest.check Alcotest.int "rejected" 1 (Obs.Metrics.counter m "rejected");
  Alcotest.check Alcotest.int "temp_advance" 2 (Obs.Metrics.counter m "temp_advance");
  Alcotest.check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "acceptance by temperature"
    [ (1, 1, 2); (2, 1, 1) ]
    (Obs.Metrics.acceptance_by_temp m);
  Alcotest.check (Alcotest.option (Alcotest.float 0.)) "best gauge" (Some 9.)
    (Obs.Metrics.gauge m "best_cost");
  Alcotest.check (Alcotest.option (Alcotest.float 0.)) "evals/sec" (Some 6.)
    (Obs.Metrics.gauge m "evals_per_sec");
  let h = Option.get (Obs.Metrics.histogram m "uphill_delta") in
  Alcotest.check Alcotest.int "one uphill delta observed" 1 (Obs.Log_hist.count h);
  (* to_json renders without raising and mentions every name. *)
  let s = Obs.Json.to_string (Obs.Metrics.to_json m) in
  Alcotest.check Alcotest.bool "json has proposed" true (contains s "proposed")

(* ------------------------------- Span ----------------------------- *)

let test_span () =
  let r = Obs.Ring.create 4 in
  let o = Obs.Ring.observer r in
  let v = Obs.Span.time o "phase" (fun () -> 42) in
  Alcotest.check Alcotest.int "value returned" 42 v;
  (match Obs.Ring.to_list r with
  | [ Obs.Event.Span { name = "phase"; seconds } ] ->
      Alcotest.check Alcotest.bool "non-negative duration" true (seconds >= 0.)
  | _ -> Alcotest.fail "expected exactly one span event");
  (* With the null observer nothing is measured or emitted. *)
  Alcotest.check Alcotest.int "null span" 1 (Obs.Span.time Obs.null "x" (fun () -> 1))

(* ----------------------- Engine reconciliation -------------------- *)

let stats_testable =
  Alcotest.testable
    (fun ppf s -> Mc_problem.pp_stats ppf s)
    (fun a b -> a = b)

(* Run an engine with a JSONL sink, re-read the file, and require the
   event stream to reproduce the returned statistics. *)
let roundtrip_stats run =
  let path = Filename.temp_file "sa_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let result = Obs.Jsonl.with_file path (fun sink -> run sink) in
      match Obs.Jsonl.read_file path with
      | Error msg -> Alcotest.failf "re-read failed: %s" msg
      | Ok events -> (result, events))

let test_f1_jsonl_reconciles () =
  let r, events =
    roundtrip_stats (fun sink ->
        let s = { Line.x = 30; cost_fn = vee } in
        let p =
          F1.params ~gfun:Gfun.six_temp_annealing ~schedule:(Schedule.kirkpatrick ())
            ~budget:(Budget.Evaluations 2000) ()
        in
        F1.run ~observer:sink (Rng.create ~seed:101) p s)
  in
  Alcotest.check stats_testable "figure1 events = stats"
    r.Mc_problem.stats
    (Mc_problem.stats_of_events events);
  (* Exactly one run_start/run_end; spans close every temperature. *)
  let count pred = List.length (List.filter pred events) in
  Alcotest.check Alcotest.int "one run_start" 1
    (count (function Obs.Event.Run_start _ -> true | _ -> false));
  Alcotest.check Alcotest.int "one run_end" 1
    (count (function Obs.Event.Run_end _ -> true | _ -> false));
  (* One span per temperature epoch plus the enclosing "run" span. *)
  Alcotest.check Alcotest.int "spans = temperatures + run"
    (r.Mc_problem.stats.Mc_problem.temperatures_visited + 1)
    (count (function Obs.Event.Span _ -> true | _ -> false))

let test_f1_defer_jsonl_reconciles () =
  let r, events =
    roundtrip_stats (fun sink ->
        let s = { Line.x = 0; cost_fn = vee } in
        let p =
          F1.params ~defer_threshold:3 ~gfun:Gfun.g_one
            ~schedule:(Schedule.constant ~k:1 1.) ~budget:(Budget.Evaluations 500) ()
        in
        F1.run ~observer:sink (Rng.create ~seed:102) p s)
  in
  Alcotest.check stats_testable "deferred-uphill events = stats"
    r.Mc_problem.stats
    (Mc_problem.stats_of_events events)

let test_f2_jsonl_reconciles () =
  let r, events =
    roundtrip_stats (fun sink ->
        let s = { Line.x = 9; cost_fn = (fun x -> float_of_int (abs (abs x - 3))) } in
        let p =
          F2.params ~counter_limit:20 ~restart_schedule:false ~gfun:Gfun.metropolis
            ~schedule:(Schedule.of_array [| 2. |]) ~budget:(Budget.Evaluations 3000) ()
        in
        F2.run ~observer:sink (Rng.create ~seed:103) p s)
  in
  Alcotest.check stats_testable "figure2 events = stats"
    r.Mc_problem.stats
    (Mc_problem.stats_of_events events);
  Alcotest.check Alcotest.bool "descents happened" true
    (r.Mc_problem.stats.Mc_problem.descents > 0)

let test_rl_jsonl_reconciles () =
  let r, events =
    roundtrip_stats (fun sink ->
        let s = { Line.x = 6; cost_fn = vee } in
        let p =
          RL.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1.5 |])
            ~budget:(Budget.Evaluations 800)
        in
        RL.run ~observer:sink (Rng.create ~seed:104) p s)
  in
  let derived = Mc_problem.stats_of_events events in
  (* The rejectionless engine's [rejected] stat is scan overhead with no
     event counterpart; everything else must match. *)
  Alcotest.check stats_testable "rejectionless events = stats (minus rejected)"
    { r.Mc_problem.stats with Mc_problem.rejected = 0 }
    derived

let test_sweep_observed () =
  let ring = Obs.Ring.create 100_000 in
  let report =
    Portfolio.sweep ~observer:(Obs.Ring.observer ring) (Rng.create ~seed:7)
      ~budget:(Budget.Evaluations 100)
      (List.init 4 (fun i ->
           Portfolio.Job.figure1
             (module Line)
             ~label:(string_of_int i) ~gfun:Gfun.metropolis
             ~schedule:(Schedule.of_array [| 1. |])
             ~make_state:(fun _ -> { Line.x = 10 + i; cost_fn = vee })
             ()))
  in
  let starts =
    List.length
      (List.filter
         (function Obs.Event.Run_start _ -> true | _ -> false)
         (Obs.Ring.to_list ring))
  in
  Alcotest.check Alcotest.int "one run_start per job" 4 starts;
  Alcotest.check Alcotest.int "budgets add up" 400 report.Portfolio.total_evaluations

(* -------------------- NOLA acceptance criterion ------------------- *)

let data_path name =
  List.find_opt Sys.file_exists
    [ "../data/" ^ name; "data/" ^ name; "../../data/" ^ name; "../../../data/" ^ name ]

let test_nola_metropolis_trace_reconciles () =
  match data_path "nola15.net" with
  | None -> () (* data directory not visible from the sandbox; skip *)
  | Some path -> (
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Netlist.of_string text with
      | Error msg -> Alcotest.failf "nola15.net: %s" msg
      | Ok nl ->
          let module E = Figure1.Make (Linarr_problem.Swap) in
          let rng = Rng.create ~seed:0 in
          let state = Arrangement.random rng nl in
          let p =
            E.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1. |])
              ~budget:(Budget.Evaluations 5000) ()
          in
          let metrics = Obs.Metrics.create () in
          let r, events =
            roundtrip_stats (fun sink ->
                E.run
                  ~observer:(Obs.Observer.tee [ sink; Obs.Metrics.observer metrics ])
                  rng p state)
          in
          let stats = r.Mc_problem.stats in
          Alcotest.check stats_testable "NOLA trace reconciles" stats
            (Mc_problem.stats_of_events events);
          (* The ISSUE's reconciliation identities, spelled out. *)
          Alcotest.check Alcotest.int "evaluations = proposed"
            stats.Mc_problem.evaluations
            (Obs.Metrics.counter metrics "proposed");
          Alcotest.check Alcotest.int "accepted = improving + lateral + uphill"
            (stats.Mc_problem.improving + stats.Mc_problem.lateral_accepted
           + stats.Mc_problem.uphill_accepted)
            (Obs.Metrics.counter metrics "accepted.improving"
            + Obs.Metrics.counter metrics "accepted.lateral"
            + Obs.Metrics.counter metrics "accepted.uphill");
          Alcotest.check Alcotest.int "one temp_advance per temperature visited"
            stats.Mc_problem.temperatures_visited
            (Obs.Metrics.counter metrics "temp_advance"))

(* --------------------------- Mc_problem --------------------------- *)

let test_stats_printers () =
  let s =
    {
      Mc_problem.evaluations = 100;
      improving = 10;
      lateral_accepted = 20;
      uphill_accepted = 5;
      rejected = 65;
      temperatures_visited = 6;
      descents = 2;
    }
  in
  let text = Format.asprintf "%a" Mc_problem.pp_stats s in
  Alcotest.check Alcotest.bool "pp mentions evaluations" true
    (contains text "evaluations");
  let json = Mc_problem.stats_to_json s in
  Alcotest.check (Alcotest.option Alcotest.int) "evaluations field" (Some 100)
    (Option.bind (Obs.Json.member "evaluations" json) Obs.Json.to_int);
  Alcotest.check (Alcotest.option Alcotest.int) "descents field" (Some 2)
    (Option.bind (Obs.Json.member "descents" json) Obs.Json.to_int);
  (* stats_of_events on an empty stream is empty_stats. *)
  Alcotest.check stats_testable "empty stream" Mc_problem.empty_stats
    (Mc_problem.stats_of_events [])

let suite =
  [
    case "json: round-trip" test_json_roundtrip;
    case "json: float fidelity" test_json_float_fidelity;
    case "json: non-finite floats render null" test_json_nonfinite_is_null;
    case "json: malformed inputs rejected" test_json_parse_errors;
    case "event: json round-trip (all constructors)" test_event_roundtrip;
    case "event: malformed events rejected" test_event_bad_json;
    QCheck_alcotest.to_alcotest prop_trajectory_invariants;
    case "trajectory: observer records run_start + proposals"
      test_trajectory_observer_records;
    case "log_hist: bucket boundaries" test_log_hist_boundaries;
    case "log_hist: merge" test_log_hist_merge;
    case "stats: Online.merge" test_online_merge;
    case "ring: retention and order" test_ring;
    case "observer: tee and null" test_observer_tee_and_null;
    case "downsample: stride-doubling thinning" test_downsample;
    case "metrics: registry basics" test_metrics_registry;
    case "metrics: standard observer set" test_metrics_observer_standard_set;
    case "span: timing through an observer" test_span;
    case "figure1: jsonl trace reconciles with stats" test_f1_jsonl_reconciles;
    case "figure1: deferred-uphill trace reconciles" test_f1_defer_jsonl_reconciles;
    case "figure2: jsonl trace reconciles with stats" test_f2_jsonl_reconciles;
    case "rejectionless: jsonl trace reconciles" test_rl_jsonl_reconciles;
    case "sweep: observer sees every job" test_sweep_observed;
    case "nola15: Metropolis trace reconciles (acceptance criterion)"
      test_nola_metropolis_trace_reconciles;
    case "mc_problem: stats printers" test_stats_printers;
  ]
