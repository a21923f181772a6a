(* One job, run to a durable conclusion.

   The runner is where the daemon's crash-safety contract is actually
   earned.  An anneal job walks under [Figure1] with a checkpoint
   cadence; every snapshot lands through [Checkpoint.save_figure1]
   (atomic, CRC-guarded, fingerprinted with the spec), so at any
   instant the newest readable snapshot is a valid resume point.  On
   entry the runner scans the job's snapshots newest-first and resumes
   from the first clean one — corrupt files (torn by a crash, or
   holding states that do not re-price to their saved costs) and stale
   ones (written under a different spec) are skipped and counted, never
   trusted.  Because a resumed walk replays the exact trajectory of its
   uninterrupted twin, the final report is byte-identical either way;
   the kill-and-restart tests assert exactly that.

   Attempts are supervised: a job whose problem misbehaves (the chaos
   matrix: NaN costs, raising operations) aborts, is retried with
   backoff, and each retry resumes from the latest checkpoint, so an
   injected fault costs a retry, not the walk's progress.  A
   persistent fault quarantines the job.  A stop request (drain or
   DELETE) is delivered by raising out of the checkpoint callback —
   the snapshot is already on disk at that point, which is what makes
   the stop safe.

   Race jobs are different: a tournament has no mid-flight resume, but
   it is deterministic in the seed, so the durability story is simply
   "rerun from scratch" — a drained or crashed race re-races to the
   identical report. *)

exception Stop_requested

type status = Done of Obs.Json.t | Halted | Failed of string

type report = {
  status : status;
  attempts : int;
  resumed : bool;
  stale : int;
  corrupt : int;
}

let schedule_for = Gfun.schedule

(* Everything mode-independent a problem kind provides: the adapter
   module, its checkpoint codec, the deterministic instance-and-state
   construction, and the net count the COHO83a class needs. *)
type ('s, 'm) inst = {
  problem : (module Mc_problem.S with type state = 's and type move = 'm);
  delta_ops : ('s, 'm) Mc_problem.delta_ops option;
  codec : 's Mc_problem.codec;
  make_state : Rng.t -> 's;
  m : int;
}

type pack = Pack : ('s, 'm) inst -> pack

let int_array_of_json json =
  match json with
  | Obs.Json.List items ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Obs.Json.Int i :: rest -> go (i :: acc) rest
        | _ -> Error "expected an array of integers"
      in
      go [] items
  | _ -> Error "expected an array of integers"

(* The TSP codec persists the cached tour length as exact bits: the
   incrementally-maintained length drifts (within float rounding) from
   a from-scratch recompute, and resume must continue on the walk's
   own accumulated value, not a rounded cousin. *)
let tsp_codec instance : Tour.t Mc_problem.codec =
  {
    encode =
      (fun t ->
        Obs.Json.Obj
          [
            ( "order",
              Obs.Json.List
                (Array.to_list
                   (Array.map (fun i -> Obs.Json.Int i) (Tour.order t))) );
            ("len", Obs.Json.String (Checkpoint.hex_of_float (Tour.length t)));
          ]);
    decode =
      (fun json ->
        let ( let* ) = Result.bind in
        let* order =
          match Obs.Json.member "order" json with
          | Some o -> int_array_of_json o
          | None -> Error "tour: missing \"order\""
        in
        let* len =
          match Obs.Json.member "len" json with
          | Some (Obs.Json.String s) -> Checkpoint.float_of_hex s
          | _ -> Error "tour: missing \"len\""
        in
        match Tour.of_order instance order with
        | t ->
            Tour.restore t ~order ~len;
            Ok t
        | exception Invalid_argument msg -> Error ("tour: " ^ msg))
  }

(* A QAP state is a permutation over an instance that regenerating
   from the seed reproduces exactly; costs are integers, so no bit
   games are needed.  Encoded as location -> facility, decoded back
   through [set_assignment] (facility -> location). *)
let qap_codec ~fresh : Qap.t Mc_problem.codec =
  {
    encode =
      (fun q ->
        let n = Qap.size q in
        Obs.Json.List
          (List.init n (fun loc -> Obs.Json.Int (Qap.facility_at q loc))));
    decode =
      (fun json ->
        let ( let* ) = Result.bind in
        let* order = int_array_of_json json in
        let q = fresh () in
        let n = Qap.size q in
        if Array.length order <> n then Error "qap: wrong assignment length"
        else begin
          let assignment = Array.make n 0 in
          Array.iteri
            (fun loc fac ->
              if fac >= 0 && fac < n then assignment.(fac) <- loc)
            order;
          match Qap.set_assignment q assignment with
          | () -> Ok q
          | exception Invalid_argument msg -> Error ("qap: " ^ msg)
        end)
  }

(* Build the problem pack.  The RNG discipline is the durability
   pivot: one stream seeded from the spec generates the instance and
   then the starting state, so the decode path (fresh stream, same
   seed) rebuilds the identical instance, while a resumed run's RNG
   comes from the snapshot, not from here. *)
let prepare (spec : Job_spec.t) =
  match spec.problem with
  | Job_spec.Netlist text -> (
      match Netlist.of_string text with
      | Error e -> Error ("netlist: " ^ e)
      | Ok nl ->
          Ok
            (Pack
               {
                 problem = (module Linarr_problem.Swap);
                 delta_ops = Some Linarr_problem.Swap.delta_ops;
                 codec = Linarr_problem.codec nl;
                 make_state = (fun rng -> Arrangement.random rng nl);
                 m = Netlist.n_nets nl;
               }))
  | Job_spec.Tsp { cities } ->
      let instance =
        let rng = Rng.create ~seed:spec.seed in
        Tsp_instance.random_uniform rng ~n:cities
      in
      Ok
        (Pack
           {
             problem = (module Tsp_problem);
             delta_ops = Some Tsp_problem.delta_ops;
             codec = tsp_codec instance;
             make_state = (fun rng -> Tour.random rng instance);
             m = 1;
           })
  | Job_spec.Qap { n; max_entry } ->
      let fresh () =
        let rng = Rng.create ~seed:spec.seed in
        Qap.random_instance rng ~n ~max_entry
      in
      Ok
        (Pack
           {
             problem = (module Qap.Problem);
             delta_ops = Some Qap.Problem.delta_ops;
             codec = qap_codec ~fresh;
             make_state =
               (fun rng ->
                 let q = fresh () in
                 let perm = Rng.permutation rng n in
                 Qap.set_assignment q perm;
                 q);
             m = 1;
           })

(* Pure serializer: no clocks, no ambient randomness — the lint
   policy lists it as a sink, and byte-identity of resumed vs
   uninterrupted reports depends on it rendering only walk data. *)
let result_to_json ~(spec : Job_spec.t) (run : _ Mc_problem.run) best_json =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "sa-lab/job-result/v1");
      ("mode", Obs.Json.String (Job_spec.mode_name spec.mode));
      ( "best_cost",
        Obs.Json.String (Checkpoint.hex_of_float run.Mc_problem.best_cost) );
      ("best_cost_value", Obs.Json.Float run.Mc_problem.best_cost);
      ( "final_cost",
        Obs.Json.String (Checkpoint.hex_of_float run.Mc_problem.final_cost) );
      ("stats", Mc_problem.stats_to_json run.Mc_problem.stats);
      ("best", best_json);
    ]

type tally = { mutable resumed : bool; mutable stale : int; mutable corrupt : int }

let run_anneal ~observer ~dir ~id ~checkpoint_every ~stop ~tally
    (spec : Job_spec.t) (Pack inst) ~attempt =
  let (module P) = inst.problem in
  let gfun =
    match Gfun.find_by_name ~m:inst.m spec.gfun with
    | Some g -> g
    | None -> failwith (Printf.sprintf "unknown gfun %S" spec.gfun)
  in
  let schedule = Gfun.schedule gfun spec.y in
  let fingerprint = Job_spec.fingerprint spec in
  (* Newest snapshot that loads cleanly wins; everything skipped on
     the way down is classified for the health counters. *)
  let resume =
    let rec pick = function
      | [] -> None
      | path :: rest -> (
          match
            Checkpoint.resume_figure1 ~path ~codec:inst.codec ~cost:P.cost
              ~fingerprint
          with
          | Ok r ->
              tally.resumed <- true;
              Some r
          | Error (Checkpoint.Stale _) ->
              tally.stale <- tally.stale + 1;
              pick rest
          | Error (Checkpoint.Corrupt _) ->
              tally.corrupt <- tally.corrupt + 1;
              pick rest)
    in
    pick (Store.snapshots ~dir id)
  in
  let budget = Budget.Evaluations spec.budget in
  (* Chaos wraps the problem with planned faults; the wrapper must see
     every cost/apply/revert call, so the incremental fast path (which
     bypasses them) is dropped while chaos is armed. *)
  let run_engine problem ~delta_ops =
    let on_checkpoint snap ~current ~best =
      let path = Store.snapshot_path ~dir id ~seq:snap.Figure1.ticks in
      Checkpoint.save_figure1 ~observer ~path ~codec:inst.codec ~fingerprint snap
        ~current ~best;
      (* The end-of-walk checkpoint (ticks = budget) never aborts: the
         result is already earned at that point. *)
      if snap.Figure1.ticks < spec.budget && stop () then raise Stop_requested
    in
    let rng, state, resume_arg =
      match resume with
      | Some (snap, current, best, rng) -> (rng, current, Some (snap, best))
      | None ->
          let rng = Rng.create ~seed:spec.seed in
          let state = inst.make_state rng in
          (rng, state, None)
    in
    (* An abort fails the attempt with its reason; the supervisor
       retries it from the newest checkpoint. *)
    let run =
      Engine.or_raise
        (Engine.run problem ?delta_ops ~observer
           (Engine.figure1 ~checkpoint_every ~on_checkpoint ?resume:resume_arg ())
           ~gfun ~schedule ~budget rng state)
    in
    result_to_json ~spec run (inst.codec.Mc_problem.encode run.Mc_problem.best)
  in
  match spec.chaos with
  | None -> run_engine (module P) ~delta_ops:inst.delta_ops
  | Some { fault; attempts } ->
      let module C = Mc_problem.Chaos (P) in
      C.reset ();
      (* Let at least one checkpoint land first, so the retry proves
         fault-then-resume rather than fault-then-restart. *)
      if attempt <= attempts then
        C.plan ~after:(checkpoint_every + (checkpoint_every / 2)) fault;
      run_engine (module C) ~delta_ops:None

let run_race ~observer ~stop (spec : Job_spec.t) (Pack inst) =
  let (module P) = inst.problem in
  let make_state = inst.make_state in
  let jobs =
    Gfun.catalog ~m:inst.m
    |> List.map (fun gfun ->
           Portfolio.Job.figure1
             (module P)
             ?delta_ops:inst.delta_ops ~label:(Gfun.name gfun) ~gfun
             ~schedule:(Gfun.schedule gfun spec.y) ~make_state ())
  in
  let rng = Rng.create ~seed:spec.seed in
  let initial_budget = Budget.Evaluations (max 1 (spec.budget / 8)) in
  (* The spec's deadline is process CPU seconds from the race's start,
     checked with [stop] between rungs. *)
  let cancel =
    match spec.deadline with
    | None -> stop
    | Some s ->
        let started = Sys.time () in
        fun () -> Sys.time () -. started >= s || stop ()
  in
  let report = Portfolio.race ~observer ~cancel rng ~initial_budget jobs in
  if report.Portfolio.stopped_early && stop () then Halted
  else Done (Portfolio.report_to_json report)

let run ?(observer = Obs.null) ?sleep ~dir ~id ~checkpoint_every ~max_attempts
    ~base_delay ~stop (spec : Job_spec.t) =
  if checkpoint_every < 1 then
    invalid_arg "Runner.run: checkpoint_every must be >= 1";
  let tally = { resumed = false; stale = 0; corrupt = 0 } in
  let finish status ~attempts =
    {
      status;
      attempts;
      resumed = tally.resumed;
      stale = tally.stale;
      corrupt = tally.corrupt;
    }
  in
  match prepare spec with
  | Error e -> finish (Failed e) ~attempts:0
  | Ok pack -> (
      match spec.mode with
      | Job_spec.Race -> (
          match run_race ~observer ~stop spec pack with
          | status -> finish status ~attempts:1
          | exception Stdlib.Out_of_memory -> raise Stdlib.Out_of_memory
          | exception Stdlib.Stack_overflow -> raise Stdlib.Stack_overflow
          | exception e -> finish (Failed (Printexc.to_string e)) ~attempts:1)
      | Job_spec.Anneal ->
          let label = Printf.sprintf "job-%06d" id in
          let work ~attempt =
            match
              run_anneal ~observer ~dir ~id ~checkpoint_every ~stop ~tally spec
                pack ~attempt
            with
            | json -> Done json
            | exception Stop_requested -> Halted
          in
          let policy =
            Supervisor.policy ~max_attempts ~base_delay ?deadline:spec.deadline
              ()
          in
          let report =
            Supervisor.run ~observer ?sleep policy
              [ { Supervisor.label; work } ]
          in
          (match report.Supervisor.outcomes with
          | [ Supervisor.Completed { value; attempts; _ } ] ->
              finish value ~attempts
          | [ Supervisor.Quarantined { reason; attempts; _ } ] ->
              finish (Failed reason) ~attempts
          | _ -> finish (Failed "supervisor returned no outcome") ~attempts:0))
