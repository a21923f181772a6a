(* The resilience layer: checkpoint persistence (roundtrip, corruption
   and staleness detection), the kill-and-resume acceptance property
   (a resumed run is bit-identical to its uninterrupted twin), the
   chaos fault-injection matrix across all three engines, failure
   containment in a portfolio sweep, and the supervisor's
   retry/backoff/deadline/quarantine logic. *)

let case name f = Alcotest.test_case name `Quick f

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let ok_or_fail_load = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Checkpoint.load_error_message e)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let err_containing what = function
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected an error mentioning %S" what)
  | Error msg ->
      if not (contains ~sub:what msg) then
        Alcotest.fail
          (Printf.sprintf "error %S does not mention %S" msg what)

(* ----------------------- shared test fixtures -------------------- *)

module Engine = Figure1.Make (Linarr_problem.Swap)

let netlist = Netlist.random_gola (Rng.create ~seed:11) ~elements:12 ~nets:60
let codec () = Linarr_problem.codec netlist
let fingerprint = Obs.Json.Obj [ ("test", Obs.Json.String "resilience") ]

let engine_params ~evals =
  let gfun = Gfun.six_temp_annealing in
  let schedule = Schedule.geometric ~y1:4.0 ~ratio:0.5 ~k:(Gfun.k gfun) in
  Engine.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) ()

let start_state () = Arrangement.random (Rng.create ~seed:5) netlist

let encode_state a = Obs.Json.to_string ((codec ()).Mc_problem.encode a)

let temp_path () = Filename.temp_file "sa_resilience" ".json"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let sample_snapshot () =
  {
    Figure1.ticks = 2000;
    temp = 3;
    counter = 7;
    accepted_at_temp = 41;
    defer_run = 2;
    initial_cost = 36.;
    current_cost = 19.;
    best_cost = 17.;
    improving = 55;
    lateral_accepted = 200;
    uphill_accepted = 31;
    rejected = 1714;
    rng = Rng.to_state (Rng.create ~seed:9);
  }

(* ----------------------- float bit encoding ---------------------- *)

let test_float_hex_roundtrip () =
  List.iter
    (fun f ->
      let back = ok_or_fail (Checkpoint.float_of_hex (Checkpoint.hex_of_float f)) in
      Alcotest.check Alcotest.int64
        (Printf.sprintf "%h roundtrips bit-exactly" f)
        (Int64.bits_of_float f) (Int64.bits_of_float back))
    [ 0.; -0.; 1.5; -27.; 0.1; Float.nan; Float.infinity; Float.neg_infinity;
      Float.max_float; Float.min_float ]

let test_float_hex_rejects_malformed () =
  List.iter
    (fun s ->
      match Checkpoint.float_of_hex s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" s)
      | Error _ -> ())
    [ ""; "0x"; "0x123"; "0x00000000000000AB"; "1234567890123456ab";
      "0xzzzzzzzzzzzzzzzz"; "0x0000000000000000ff" ]

(* ------------------------ checkpoint files ----------------------- *)

let test_checkpoint_roundtrip () =
  let path = temp_path () in
  let codec = codec () in
  let snap = sample_snapshot () in
  let current = start_state () in
  let best = Arrangement.random (Rng.create ~seed:6) netlist in
  Checkpoint.save_figure1 ~path ~codec ~fingerprint snap ~current ~best;
  let snap', current', best', rng' =
    ok_or_fail_load (Checkpoint.load_figure1 ~path ~codec ~fingerprint)
  in
  Sys.remove path;
  Alcotest.check Alcotest.bool "snapshot roundtrips" true (snap = snap');
  Alcotest.check Alcotest.string "current state roundtrips"
    (encode_state current) (encode_state current');
  Alcotest.check Alcotest.string "best state roundtrips"
    (encode_state best) (encode_state best');
  Alcotest.check Alcotest.string "rng position roundtrips" snap.Figure1.rng
    (Rng.to_state rng')

let test_checkpoint_save_emits_event () =
  let path = temp_path () in
  let codec = codec () in
  let seen = ref [] in
  let observer = Obs.Observer.of_fun (fun ev -> seen := ev :: !seen) in
  let current = start_state () in
  Checkpoint.save_figure1 ~observer ~path ~codec ~fingerprint
    (sample_snapshot ()) ~current ~best:current;
  Sys.remove path;
  match !seen with
  | [ Obs.Event.Checkpoint_written { path = p; evaluation } ] ->
      Alcotest.check Alcotest.string "event path" path p;
      Alcotest.check Alcotest.int "event evaluation" 2000 evaluation
  | _ -> Alcotest.fail "expected exactly one Checkpoint_written event"

let test_corrupted_checkpoint_rejected () =
  let path = temp_path () in
  let codec = codec () in
  let current = start_state () in
  Checkpoint.save_figure1 ~path ~codec ~fingerprint (sample_snapshot ())
    ~current ~best:current;
  (* Flip one byte inside the payload: the schema wrapper still parses,
     so only the CRC can catch it. *)
  let raw = read_file path in
  let i =
    match String.index_opt raw 'g' with
    | Some i -> i (* first 'g' lands inside "figure1" in the payload *)
    | None -> Alcotest.fail "no byte to corrupt"
  in
  let mangled = Bytes.of_string raw in
  Bytes.set mangled i 'j';
  write_file path (Bytes.to_string mangled);
  err_containing "CRC mismatch" (Checkpoint.read ~path);
  (match Checkpoint.load_figure1 ~path ~codec ~fingerprint with
  | Error (Checkpoint.Corrupt msg) -> err_containing "CRC mismatch" (Error msg)
  | Error (Checkpoint.Stale msg) ->
      Alcotest.fail ("corruption classified stale: " ^ msg)
  | Ok _ -> Alcotest.fail "corrupt checkpoint accepted");
  Sys.remove path

let test_truncated_checkpoint_rejected () =
  let path = temp_path () in
  let codec = codec () in
  let current = start_state () in
  Checkpoint.save_figure1 ~path ~codec ~fingerprint (sample_snapshot ())
    ~current ~best:current;
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw / 2));
  err_containing "not valid JSON" (Checkpoint.read ~path);
  Sys.remove path

let test_wrong_schema_rejected () =
  let path = temp_path () in
  write_file path
    {|{"schema":"sa-lab/other/v9","crc":"00000000","payload":{}}|};
  err_containing "schema" (Checkpoint.read ~path);
  write_file path {|{"foo":1}|};
  err_containing "missing schema" (Checkpoint.read ~path);
  Sys.remove path

let test_stale_fingerprint_rejected () =
  let path = temp_path () in
  let codec = codec () in
  let current = start_state () in
  Checkpoint.save_figure1 ~path ~codec ~fingerprint (sample_snapshot ())
    ~current ~best:current;
  let other = Obs.Json.Obj [ ("test", Obs.Json.String "different-run") ] in
  (match Checkpoint.load_figure1 ~path ~codec ~fingerprint:other with
  | Error (Checkpoint.Stale msg) -> err_containing "fingerprint" (Error msg)
  | Error (Checkpoint.Corrupt msg) ->
      Alcotest.fail ("staleness classified corrupt: " ^ msg)
  | Ok _ -> Alcotest.fail "stale checkpoint accepted");
  Sys.remove path

(* ----------------------- kill and resume ------------------------- *)

exception Simulated_kill

let run_stats (r : _ Mc_problem.run) = r.Mc_problem.stats

let check_runs_identical ~msg (a : Arrangement.t Mc_problem.run)
    (b : Arrangement.t Mc_problem.run) =
  let bits f = Int64.bits_of_float f in
  Alcotest.check Alcotest.int64 (msg ^ ": best_cost")
    (bits a.Mc_problem.best_cost) (bits b.Mc_problem.best_cost);
  Alcotest.check Alcotest.int64 (msg ^ ": final_cost")
    (bits a.Mc_problem.final_cost) (bits b.Mc_problem.final_cost);
  let sa = run_stats a and sb = run_stats b in
  Alcotest.check Alcotest.bool (msg ^ ": stats") true (sa = sb);
  Alcotest.check Alcotest.string (msg ^ ": best state")
    (encode_state a.Mc_problem.best) (encode_state b.Mc_problem.best)

let test_kill_and_resume_bit_identical () =
  let codec = codec () in
  let params = engine_params ~evals:4000 in
  (* Uninterrupted baseline. *)
  let state_base = start_state () in
  let r_base = Engine.run (Rng.create ~seed:7) params state_base in
  (* Same run, killed at evaluation 2000 from inside the checkpoint
     callback — exactly how the CLI's signal flag stops a run. *)
  let path = temp_path () in
  let save snap ~current ~best =
    Checkpoint.save_figure1 ~path ~codec ~fingerprint snap ~current ~best
  in
  let killing snap ~current ~best =
    save snap ~current ~best;
    if snap.Figure1.ticks = 2000 then raise Simulated_kill
  in
  let state_killed = start_state () in
  (match
     Engine.run ~checkpoint_every:1000 ~on_checkpoint:killing
       (Rng.create ~seed:7) params state_killed
   with
  | (_ : Arrangement.t Mc_problem.run) ->
      Alcotest.fail "run was not interrupted"
  | exception Simulated_kill -> ());
  (* Resume from the persisted snapshot and run to completion. *)
  let snap, current, best, rng =
    ok_or_fail_load (Checkpoint.load_figure1 ~path ~codec ~fingerprint)
  in
  Alcotest.check Alcotest.int "killed at evaluation 2000" 2000
    snap.Figure1.ticks;
  Alcotest.check Alcotest.int64 "original initial cost preserved"
    (Int64.bits_of_float (float_of_int (Arrangement.density (start_state ()))))
    (Int64.bits_of_float snap.Figure1.initial_cost);
  let r_res =
    Engine.run ~checkpoint_every:1000 ~on_checkpoint:save ~resume:(snap, best)
      rng params current
  in
  Sys.remove path;
  check_runs_identical ~msg:"resumed vs uninterrupted" r_base r_res;
  Alcotest.check Alcotest.string "final state identical"
    (encode_state state_base) (encode_state current)

let test_checkpointing_is_observation_only () =
  (* Saving checkpoints must not perturb the walk at all. *)
  let codec = codec () in
  let params = engine_params ~evals:3000 in
  let state_plain = start_state () in
  let r_plain = Engine.run (Rng.create ~seed:8) params state_plain in
  let path = temp_path () in
  let save snap ~current ~best =
    Checkpoint.save_figure1 ~path ~codec ~fingerprint snap ~current ~best
  in
  let state_ckpt = start_state () in
  let r_ckpt =
    Engine.run ~checkpoint_every:500 ~on_checkpoint:save (Rng.create ~seed:8)
      params state_ckpt
  in
  Sys.remove path;
  check_runs_identical ~msg:"checkpointed vs plain" r_plain r_ckpt;
  Alcotest.check Alcotest.string "final state identical"
    (encode_state state_plain) (encode_state state_ckpt)

let test_resume_argument_validation () =
  let params = engine_params ~evals:1000 in
  let snap = sample_snapshot () in
  let bad_ticks = { snap with Figure1.ticks = -1 } in
  let bad_temp = { snap with Figure1.temp = 99 } in
  let state () = start_state () in
  Alcotest.check_raises "negative resume ticks"
    (Invalid_argument "Figure1.run: resume with negative ticks") (fun () ->
      ignore (Engine.run ~resume:(bad_ticks, state ()) (Rng.create ~seed:1)
                params (state ())));
  Alcotest.check_raises "temperature out of range"
    (Invalid_argument "Figure1.run: resume temperature out of schedule range")
    (fun () ->
      ignore (Engine.run ~resume:(bad_temp, state ()) (Rng.create ~seed:1)
                params (state ())));
  Alcotest.check_raises "non-positive checkpoint_every"
    (Invalid_argument "Figure1.run: checkpoint_every <= 0") (fun () ->
      ignore (Engine.run ~checkpoint_every:0 (Rng.create ~seed:1) params
                (state ())))

(* --------------------- chaos fault injection --------------------- *)

module Chaos_swap = Mc_problem.Chaos (Linarr_problem.Swap)
module CF1 = Figure1.Make (Chaos_swap)
module CF2 = Figure2.Make (Chaos_swap)
module CRL = Rejectionless.Make (Chaos_swap)

(* Low constant temperature: plenty of rejections, so the revert path
   is exercised early in every engine. *)
let chaos_gfun = Gfun.metropolis
let chaos_schedule = Schedule.constant ~k:1 0.5

let cf1_params =
  lazy
    (CF1.params ~gfun:chaos_gfun ~schedule:chaos_schedule
       ~budget:(Budget.Evaluations 4000) ())

let cf2_params =
  lazy
    (CF2.params ~gfun:chaos_gfun ~schedule:chaos_schedule
       ~budget:(Budget.Evaluations 4000) ())

let crl_params =
  lazy
    (CRL.params ~gfun:chaos_gfun ~schedule:chaos_schedule
       ~budget:(Budget.Evaluations 4000))

(* Run [engine] on a fresh arrangement expecting an abort; return the
   reason, the partial result, and the state the engine was mutating. *)
let abort_of engine =
  let state = Arrangement.random (Rng.create ~seed:21) netlist in
  match engine state with
  | (_ : Arrangement.t Mc_problem.run) ->
      Alcotest.fail "engine completed despite the planned fault"
  | exception e -> (e, state)

let engines =
  [
    ( "figure1",
      fun state -> CF1.run (Rng.create ~seed:22) (Lazy.force cf1_params) state );
    ( "figure2",
      fun state -> CF2.run (Rng.create ~seed:22) (Lazy.force cf2_params) state );
    ( "rejectionless",
      fun state -> CRL.run (Rng.create ~seed:22) (Lazy.force crl_params) state );
  ]

let partial_of_abort name = function
  | CF1.Aborted { reason; partial } -> (reason, partial)
  | CF2.Aborted { reason; partial } -> (reason, partial)
  | CRL.Aborted { reason; partial } -> (reason, partial)
  | e ->
      Alcotest.fail
        (Printf.sprintf "%s: expected Aborted, got %s" name
           (Printexc.to_string e))

let check_aborted_cleanly ~name ~fault_is_cost (reason, partial, state) =
  (match (fault_is_cost, reason) with
  | `Invalid, Mc_problem.Invalid_cost _ -> ()
  | `Fault, Chaos_swap.Fault _ -> ()
  | _, e ->
      Alcotest.fail
        (Printf.sprintf "%s: unexpected abort reason %s" name
           (Printexc.to_string e)));
  Alcotest.check Alcotest.bool (name ^ ": best-so-far cost finite") true
    (Float.is_finite partial.Mc_problem.best_cost);
  Alcotest.check Alcotest.bool (name ^ ": some progress recorded") true
    (partial.Mc_problem.stats.Mc_problem.evaluations > 0);
  (* The state handed to the engine must be internally consistent even
     after the abort: half-applied moves were reverted. *)
  Arrangement.check state;
  Arrangement.check partial.Mc_problem.best

let chaos_matrix_case (fault_name, fault, expected) (engine_name, engine) () =
  Chaos_swap.reset ();
  Chaos_swap.plan ~after:60 fault;
  let e, state = abort_of engine in
  let reason, partial =
    partial_of_abort (engine_name ^ "/" ^ fault_name) e
  in
  Alcotest.check Alcotest.int
    (engine_name ^ "/" ^ fault_name ^ ": fault fired once")
    1 (Chaos_swap.injected ());
  Chaos_swap.reset ();
  check_aborted_cleanly
    ~name:(engine_name ^ "/" ^ fault_name)
    ~fault_is_cost:expected (reason, partial, state)

let chaos_matrix_cases =
  let faults =
    [
      ("nan-cost", Chaos_swap.Nan_cost, `Invalid);
      ("inf-cost", Chaos_swap.Inf_cost, `Invalid);
      ("raise-cost", Chaos_swap.Raise_cost, `Fault);
      ("raise-apply", Chaos_swap.Raise_apply, `Fault);
      ("raise-revert", Chaos_swap.Raise_revert, `Fault);
    ]
  in
  List.concat_map
    (fun engine ->
      List.map
        (fun fault ->
          let fault_name, _, _ = fault in
          let engine_name, _ = engine in
          case
            (Printf.sprintf "chaos: %s survives %s" engine_name fault_name)
            (chaos_matrix_case fault engine))
        faults)
    engines

(* The same matrix on the delta fast path: faults are injected into a
   wrapped [Linarr_problem.Swap.delta_ops] (non-finite deltas, raising
   propose/delta/commit), and a NaN resync cost comes from [Chaos_swap]
   itself under a short [recost_every]. *)
type delta_fault = Nan_delta | Inf_delta | Raise_propose | Raise_delta | Raise_commit

let faulty_delta_ops ~fired fault =
  let d = Linarr_problem.Swap.delta_ops in
  let after = match fault with Raise_commit -> 10 | _ -> 60 in
  let calls = ref 0 in
  let fire () =
    incr calls;
    let now = !calls = after + 1 in
    if now then incr fired;
    now
  in
  let fault_exn op = Chaos_swap.Fault ("injected " ^ op) in
  match fault with
  | Nan_delta | Inf_delta ->
      let bad = if fault = Nan_delta then Float.nan else Float.infinity in
      { d with delta = (fun s m -> let v = d.delta s m in if fire () then bad else v) }
  | Raise_propose ->
      { d with propose = (fun rng s -> if fire () then raise (fault_exn "propose") else d.propose rng s) }
  | Raise_delta ->
      { d with delta = (fun s m -> if fire () then raise (fault_exn "delta") else d.delta s m) }
  | Raise_commit ->
      { d with commit = (fun s m -> if fire () then raise (fault_exn "commit") else d.commit s m) }

let delta_engines ?observer delta_ops =
  [
    ( "figure1",
      fun state ->
        CF1.run ?observer ~delta_ops (Rng.create ~seed:22) (Lazy.force cf1_params) state );
    ( "figure2",
      fun state ->
        CF2.run ?observer ~delta_ops (Rng.create ~seed:22) (Lazy.force cf2_params) state );
    ( "rejectionless",
      fun state ->
        CRL.run ?observer ~delta_ops (Rng.create ~seed:22) (Lazy.force crl_params) state );
  ]

let delta_chaos_case (fault_name, fault, expected, message) engine_name () =
  Chaos_swap.reset ();
  let fired = ref 0 in
  let delta_ops = faulty_delta_ops ~fired fault in
  let engine = List.assoc engine_name (delta_engines delta_ops) in
  let e, state = abort_of engine in
  let name = engine_name ^ "/delta/" ^ fault_name in
  let reason, partial = partial_of_abort name e in
  Alcotest.check Alcotest.int (name ^ ": fault fired once") 1 !fired;
  Alcotest.check Alcotest.bool (name ^ ": reason names the fault") true
    (contains ~sub:message (Printexc.to_string reason));
  check_aborted_cleanly ~name ~fault_is_cost:expected (reason, partial, state)

let resync_chaos_case (fault_name, fault) engine_name () =
  Chaos_swap.reset ();
  (* Dormant through the initial cost and two resyncs. *)
  Chaos_swap.plan ~after:3 fault;
  let delta_ops = { Linarr_problem.Swap.delta_ops with Mc_problem.recost_every = 7 } in
  let engine = List.assoc engine_name (delta_engines delta_ops) in
  let e, state = abort_of engine in
  let name = engine_name ^ "/resync/" ^ fault_name in
  let reason, partial = partial_of_abort name e in
  Alcotest.check Alcotest.int (name ^ ": fault fired once") 1 (Chaos_swap.injected ());
  Chaos_swap.reset ();
  Alcotest.check Alcotest.bool (name ^ ": reason names the resync") true
    (contains ~sub:"at resync" (Printexc.to_string reason));
  check_aborted_cleanly ~name ~fault_is_cost:`Invalid (reason, partial, state)

let delta_chaos_cases =
  let faults =
    [
      ("nan-delta", Nan_delta, `Invalid, "non-finite delta");
      ("inf-delta", Inf_delta, `Invalid, "non-finite delta");
      ("raise-propose", Raise_propose, `Fault, "injected propose");
      ("raise-delta", Raise_delta, `Fault, "injected delta");
      ("raise-commit", Raise_commit, `Fault, "injected commit");
    ]
  in
  List.concat_map
    (fun (engine_name, _) ->
      List.filter_map
        (fun ((fault_name, fault, _, _) as f) ->
          (* The rejectionless engine enumerates [P.moves] and never
             calls [propose]. *)
          if engine_name = "rejectionless" && fault = Raise_propose then None
          else
            Some
              (case
                 (Printf.sprintf "chaos: %s delta path survives %s" engine_name
                    fault_name)
                 (delta_chaos_case f engine_name)))
        faults
      @ List.map
          (fun ((fault_name, _) as f) ->
            case
              (Printf.sprintf "chaos: %s delta path survives %s at resync"
                 engine_name fault_name)
              (resync_chaos_case f engine_name))
          [ ("nan-cost", Chaos_swap.Nan_cost); ("inf-cost", Chaos_swap.Inf_cost) ])
    engines

(* A commit that completes the swap and then raises, on the first
   commit after the [nth] new best.  The walk is either leaving that
   best for a state that does not beat it (the partial is the copy
   taken before the commit) or for a better one (the partial is the
   copy before that, with its own cost).  Either way the partial is a
   state the walk held as its best, at the cost it had then. *)
let abort_after_new_best_case engine_name nth () =
  Chaos_swap.reset ();
  let walked = ref None and bests = ref [] and armed = ref false and fired = ref 0 in
  let held cost = bests := (Arrangement.order (Option.get !walked), cost) :: !bests in
  let observer =
    Obs.Observer.of_fun (function
      | Obs.Event.Run_start { cost } -> held cost
      | Obs.Event.New_best { cost; _ } ->
          held cost;
          if List.length !bests = nth + 1 then armed := true
      | _ -> ())
  in
  let d = Linarr_problem.Swap.delta_ops in
  let commit s m =
    d.commit s m;
    if !armed then begin
      armed := false;
      incr fired;
      raise (Chaos_swap.Fault "injected commit after a new best")
    end
  in
  let run = List.assoc engine_name (delta_engines ~observer { d with commit }) in
  let e, _ =
    abort_of (fun state ->
        walked := Some state;
        run state)
  in
  let name = Printf.sprintf "%s/commit after new best %d" engine_name nth in
  let _, partial = partial_of_abort name e in
  Alcotest.check Alcotest.int (name ^ ": fault fired once") 1 !fired;
  let best = partial.Mc_problem.best and best_cost = partial.Mc_problem.best_cost in
  Arrangement.check best;
  Alcotest.check (Alcotest.float 0.) (name ^ ": best re-prices to its cost")
    (float_of_int (Arrangement.density_of_order netlist (Arrangement.order best)))
    best_cost;
  Alcotest.check Alcotest.bool (name ^ ": best is a best the walk held") true
    (List.mem (Arrangement.order best, best_cost) !bests)

let abort_after_new_best_cases =
  List.concat_map
    (fun (engine_name, _) ->
      List.map
        (fun nth ->
          case
            (Printf.sprintf "chaos: %s commit raising after new best %d keeps a priced best"
               engine_name nth)
            (abort_after_new_best_case engine_name nth))
        [ 1; 2 ])
    engines

let test_chaos_slow_move_completes () =
  Chaos_swap.reset ();
  Chaos_swap.plan ~after:5 (Chaos_swap.Slow_move 0.002);
  let state = Arrangement.random (Rng.create ~seed:23) netlist in
  let p =
    CF1.params ~gfun:chaos_gfun ~schedule:chaos_schedule
      ~budget:(Budget.Evaluations 50) ()
  in
  let r = CF1.run (Rng.create ~seed:24) p state in
  Alcotest.check Alcotest.int "slow move fired" 1 (Chaos_swap.injected ());
  Chaos_swap.reset ();
  Alcotest.check Alcotest.int "run still completed its budget" 50
    r.Mc_problem.stats.Mc_problem.evaluations

let test_chaos_plan_validation () =
  Chaos_swap.reset ();
  Alcotest.check_raises "negative after"
    (Invalid_argument "Chaos.plan: negative after") (fun () ->
      Chaos_swap.plan ~after:(-1) Chaos_swap.Nan_cost);
  Alcotest.check_raises "times < 1" (Invalid_argument "Chaos.plan: times < 1")
    (fun () -> Chaos_swap.plan ~times:0 Chaos_swap.Nan_cost);
  Chaos_swap.reset ()

let test_chaos_plan_after_and_times () =
  Chaos_swap.reset ();
  Chaos_swap.plan ~after:2 ~times:2 Chaos_swap.Nan_cost;
  let state = start_state () in
  let c1 = Chaos_swap.cost state and c2 = Chaos_swap.cost state in
  Alcotest.check Alcotest.bool "dormant for the first [after] calls" true
    (Float.is_finite c1 && Float.is_finite c2);
  Alcotest.check Alcotest.bool "fires on the next [times] calls" true
    (Float.is_nan (Chaos_swap.cost state)
    && Float.is_nan (Chaos_swap.cost state));
  Alcotest.check Alcotest.bool "then disarms" true
    (Float.is_finite (Chaos_swap.cost state));
  Alcotest.check Alcotest.int "two faults recorded" 2 (Chaos_swap.injected ());
  Chaos_swap.reset ();
  Alcotest.check Alcotest.int "reset clears the count" 0
    (Chaos_swap.injected ());
  Alcotest.check Alcotest.bool "reset clears the plans" true
    (Float.is_finite (Chaos_swap.cost state))

(* --------------------- sweep containment ----------------------- *)

let test_sweep_contains_aborts () =
  Chaos_swap.reset ();
  (* One single-shot fault: the first job to pass 200 cost calls
     absorbs it; the other jobs must complete untouched. *)
  Chaos_swap.plan ~after:200 Chaos_swap.Raise_cost;
  let report =
    Portfolio.sweep (Rng.create ~seed:31) ~budget:(Budget.Evaluations 1000)
      (List.init 3 (fun i ->
           Portfolio.Job.figure1
             (module Chaos_swap)
             ~label:(string_of_int i) ~gfun:chaos_gfun ~schedule:chaos_schedule
             ~make_state:(fun _ -> Arrangement.random (Rng.create ~seed:(100 + i)) netlist)
             ()))
  in
  Chaos_swap.reset ();
  let standings = (List.hd report.Portfolio.rounds).Portfolio.results in
  (match
     List.filter_map
       (fun s -> Option.map (fun r -> (s.Portfolio.label, r)) s.Portfolio.failure)
       standings
   with
  | [ ("0", reason) ] ->
      Alcotest.check Alcotest.bool "reason names the chaos fault" true
        (contains ~sub:"Fault" reason)
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected job 0 to fail alone, got %d failures"
           (List.length fs)));
  Alcotest.check Alcotest.int "all jobs reported" 3 (List.length standings);
  List.iter
    (fun s ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "job %s cost finite" s.Portfolio.label)
        true (Float.is_finite s.Portfolio.cost))
    standings

(* --------------------------- supervisor -------------------------- *)

let test_supervisor_retries_then_completes () =
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let events = ref [] in
  let observer = Obs.Observer.of_fun (fun ev -> events := ev :: !events) in
  let policy = Supervisor.policy ~max_attempts:3 ~base_delay:0.5 ~backoff:3.0 () in
  let job =
    {
      Supervisor.label = "flaky";
      work = (fun ~attempt -> if attempt < 3 then failwith "transient" else 42);
    }
  in
  let report = Supervisor.run ~observer ~sleep ~now:(fun () -> 0.) policy [ job ] in
  Alcotest.check Alcotest.int "two retries" 2 report.Supervisor.retries;
  Alcotest.check Alcotest.int "nothing quarantined" 0
    report.Supervisor.quarantined;
  (match report.Supervisor.outcomes with
  | [ Supervisor.Completed { label; attempts; value; seconds } ] ->
      Alcotest.check Alcotest.string "label" "flaky" label;
      Alcotest.check Alcotest.int "succeeded on attempt 3" 3 attempts;
      Alcotest.check Alcotest.int "value" 42 value;
      Alcotest.check (Alcotest.float 0.) "seconds from injected clock" 0. seconds
  | _ -> Alcotest.fail "expected one completed outcome");
  Alcotest.check
    (Alcotest.list (Alcotest.float 1e-9))
    "exact backoff sequence: base, base*backoff" [ 0.5; 1.5 ]
    (List.rev !slept);
  let retry_attempts =
    List.filter_map
      (function
        | Obs.Event.Retry { label = _; attempt; delay = _; reason = _ } ->
            Some attempt
        | _ -> None)
      (List.rev !events)
  in
  Alcotest.check (Alcotest.list Alcotest.int) "Retry events per failed attempt"
    [ 1; 2 ] retry_attempts

let test_supervisor_quarantines_after_max_attempts () =
  let events = ref [] in
  let observer = Obs.Observer.of_fun (fun ev -> events := ev :: !events) in
  let policy = Supervisor.policy ~max_attempts:2 ~base_delay:0.01 () in
  let job =
    { Supervisor.label = "doomed"; work = (fun ~attempt:_ -> failwith "always") }
  in
  let report =
    Supervisor.run ~observer ~sleep:(fun _ -> ()) ~now:(fun () -> 0.) policy
      [ job ]
  in
  Alcotest.check Alcotest.int "quarantined" 1 report.Supervisor.quarantined;
  (match report.Supervisor.outcomes with
  | [ Supervisor.Quarantined { label; attempts; reason } ] ->
      Alcotest.check Alcotest.string "label" "doomed" label;
      Alcotest.check Alcotest.int "gave up after max_attempts" 2 attempts;
      Alcotest.check Alcotest.bool "reason carries the exception" true
        (contains ~sub:"always" reason)
  | _ -> Alcotest.fail "expected one quarantined outcome");
  let quarantine_events =
    List.filter
      (function Obs.Event.Quarantined _ -> true | _ -> false)
      !events
  in
  Alcotest.check Alcotest.int "one Quarantined event" 1
    (List.length quarantine_events)

let test_supervisor_deadline () =
  (* Injected clock: every reading advances 10 simulated seconds, so
     each attempt "takes" 10 s against a 1 s deadline. *)
  let t = ref 0. in
  let now () = let v = !t in t := v +. 10.; v in
  let policy = Supervisor.policy ~max_attempts:2 ~base_delay:0.01 ~deadline:1.0 () in
  let job = { Supervisor.label = "slow"; work = (fun ~attempt:_ -> ()) } in
  let report = Supervisor.run ~sleep:(fun _ -> ()) ~now policy [ job ] in
  match report.Supervisor.outcomes with
  | [ Supervisor.Quarantined { label = _; attempts; reason } ] ->
      Alcotest.check Alcotest.int "retried, then quarantined" 2 attempts;
      Alcotest.check Alcotest.string "precise deadline message"
        "deadline exceeded (10.000s > 1.000s)" reason
  | _ -> Alcotest.fail "expected the slow job to be quarantined"

let test_supervisor_fatal_exceptions_propagate () =
  let policy = Supervisor.policy ~max_attempts:5 ~base_delay:0.01 () in
  let job =
    { Supervisor.label = "oom"; work = (fun ~attempt:_ -> raise Out_of_memory) }
  in
  Alcotest.check_raises "Out_of_memory is not retried" Out_of_memory (fun () ->
      ignore (Supervisor.run ~sleep:(fun _ -> ()) ~now:(fun () -> 0.) policy
                [ job ]))

let test_supervisor_policy_validation () =
  let check name f =
    match f () with
    | (_ : Supervisor.policy) -> Alcotest.fail (name ^ " accepted")
    | exception Invalid_argument _ -> ()
  in
  check "max_attempts < 1" (fun () -> Supervisor.policy ~max_attempts:0 ());
  check "negative base_delay" (fun () -> Supervisor.policy ~base_delay:(-1.) ());
  check "backoff < 1" (fun () -> Supervisor.policy ~backoff:0.5 ());
  check "deadline <= 0" (fun () -> Supervisor.policy ~deadline:0. ())

let test_supervisor_report_json () =
  let policy = Supervisor.policy ~max_attempts:2 ~base_delay:0.01 () in
  let jobs =
    [
      { Supervisor.label = "good"; work = (fun ~attempt:_ -> 17) };
      { Supervisor.label = "bad"; work = (fun ~attempt:_ -> failwith "nope") };
    ]
  in
  let report =
    Supervisor.run ~sleep:(fun _ -> ()) ~now:(fun () -> 0.) policy jobs
  in
  let json =
    Supervisor.report_to_json ~value:(fun v -> Obs.Json.Int v) report
  in
  (match Obs.Json.member "schema" json with
  | Some (Obs.Json.String s) ->
      Alcotest.check Alcotest.string "schema tag" Supervisor.report_schema s
  | _ -> Alcotest.fail "missing schema");
  let int_field name =
    match Option.bind (Obs.Json.member name json) Obs.Json.to_int with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "missing int field %S" name)
  in
  Alcotest.check Alcotest.int "completed" 1 (int_field "completed");
  Alcotest.check Alcotest.int "quarantined" 1 (int_field "quarantined");
  Alcotest.check Alcotest.int "retries" 1 (int_field "retries");
  match Obs.Json.member "outcomes" json with
  | Some (Obs.Json.List [ good; bad ]) ->
      (match Obs.Json.member "value" good with
      | Some (Obs.Json.Int 17) -> ()
      | _ -> Alcotest.fail "completed outcome carries its value");
      (match Obs.Json.member "status" bad with
      | Some (Obs.Json.String "quarantined") -> ()
      | _ -> Alcotest.fail "failed outcome is quarantined");
      (* The rendered report must survive a parse roundtrip. *)
      let text = Obs.Json.to_string json in
      (match Obs.Json.parse text with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("report does not re-parse: " ^ msg))
  | _ -> Alcotest.fail "outcomes is not a two-element list"

(* ------------------------------------------------------------------ *)

let suite =
  [
    case "float bit patterns roundtrip" test_float_hex_roundtrip;
    case "malformed bit patterns rejected" test_float_hex_rejects_malformed;
    case "checkpoint roundtrips" test_checkpoint_roundtrip;
    case "save emits Checkpoint_written" test_checkpoint_save_emits_event;
    case "corrupted checkpoint rejected" test_corrupted_checkpoint_rejected;
    case "truncated checkpoint rejected" test_truncated_checkpoint_rejected;
    case "wrong schema rejected" test_wrong_schema_rejected;
    case "stale fingerprint rejected" test_stale_fingerprint_rejected;
    case "kill and resume is bit-identical" test_kill_and_resume_bit_identical;
    case "checkpointing is observation-only" test_checkpointing_is_observation_only;
    case "resume argument validation" test_resume_argument_validation;
  ]
  @ chaos_matrix_cases
  @ delta_chaos_cases
  @ abort_after_new_best_cases
  @ [
      case "chaos: slow moves only delay" test_chaos_slow_move_completes;
      case "chaos: plan validation" test_chaos_plan_validation;
      case "chaos: after/times/reset semantics" test_chaos_plan_after_and_times;
      case "sweep contains an aborted job" test_sweep_contains_aborts;
      case "supervisor retries then completes" test_supervisor_retries_then_completes;
      case "supervisor quarantines after max attempts"
        test_supervisor_quarantines_after_max_attempts;
      case "supervisor deadline is enforced post hoc" test_supervisor_deadline;
      case "supervisor re-raises fatal exceptions"
        test_supervisor_fatal_exceptions_propagate;
      case "supervisor policy validation" test_supervisor_policy_validation;
      case "supervisor report JSON" test_supervisor_report_json;
    ]
