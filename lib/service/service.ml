(* The sa_labd core: admission, queueing, execution, durability.

   One mutex guards all service state — registry, queue, counters,
   event logs.  Everything slow happens outside it: request parsing
   in the connection threads, the walks themselves in the runner
   threads, snapshot IO in [Runner], and manifest writes, which are
   rendered under the lock but hit the disk after release (see
   [persist_later]).  The lock is only ever held for pointer-sized
   bookkeeping, so admission stays cheap under load — a slow disk
   stalls one job's bookkeeping, never every handler — and
   backpressure is a queue-depth comparison, never memory growth.

   The durability rules are deliberately boring:

   - a job's manifest is written at admission (status "queued") and at
     every terminal transition; running jobs keep their "queued"
     manifest, so a crash mid-run re-queues them and their snapshots
     carry the progress;
   - drain flips one flag: admission starts refusing (503), runners
     stop at the next checkpoint (the snapshot lands first), halted
     jobs persist as "interrupted", and event streams are closed so
     no client hangs on a daemon that is leaving;
   - restart is a directory scan: terminal manifests reload as
     history, everything else re-queues, and the runner decides
     resumable/stale/corrupt per snapshot through the checkpoint
     taxonomy. *)

type config = {
  dir : string;
  max_queue : int;
  runners : int;
  quota_burst : int;
  quota_refill : float;
  quota_clients : int;
  checkpoint_every : int;
  keep : int;
  max_budget : int;
  max_attempts : int;
  base_delay : float;
}

let default_config ~dir =
  {
    dir;
    max_queue = 64;
    runners = 2;
    quota_burst = 16;
    quota_refill = 4.;
    quota_clients = 1024;
    checkpoint_every = 1_000;
    keep = 3;
    max_budget = 10_000_000;
    max_attempts = 3;
    base_delay = 0.05;
  }

type job_state = Queued | Running | Finished | Failed | Cancelled | Interrupted

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"
  | Interrupted -> "interrupted"

(* Bounded append-only line log, read by index from streaming
   connections. *)
type event_log = {
  mutable lines : string array;
  mutable len : int;
  mutable dropped : int;
  mutable closed : bool;
}

let log_cap = 4096

let new_log () = { lines = Array.make 64 ""; len = 0; dropped = 0; closed = false }

let log_push log line =
  if log.closed || log.len >= log_cap then log.dropped <- log.dropped + 1
  else begin
    if log.len = Array.length log.lines then begin
      let bigger = Array.make (2 * log.len) "" in
      Array.blit log.lines 0 bigger 0 log.len;
      log.lines <- bigger
    end;
    log.lines.(log.len) <- line;
    log.len <- log.len + 1
  end

type job = {
  id : int;
  client : string;
  spec : Job_spec.t;
  mutable state : job_state;
  mutable result : Obs.Json.t option;
  mutable error : string option;
  mutable attempts : int;
  mutable was_resumed : bool;
  cancel : bool Atomic.t;
  events : event_log;
  io : Mutex.t;  (* serialises this job's manifest writes *)
  mutable manifest_seq : int;  (* bumped under the service lock *)
  mutable persisted_seq : int;  (* guarded by [io] *)
}

type counters = {
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable interrupted : int;
  mutable rejected_quota : int;
  mutable rejected_queue : int;
  mutable resumed : int;
  mutable stale_snapshots : int;
  mutable corrupt_snapshots : int;
  mutable corrupt_manifests : int;
}

type t = {
  cfg : config;
  quota : Quota.t;
  m : Mutex.t;
  cv : Condition.t;
  jobs : (int, job) Hashtbl.t;
  queue : int Queue.t;
  mutable next_id : int;
  mutable draining : bool;
  mutable threads : Thread.t list;
  c : counters;
}

let locked t f = Mutex.protect t.m f

(* Manifest payload; [Checkpoint.write] adds the CRC envelope. *)
let manifest_of_job job =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int job.id);
      ("client", Obs.Json.String job.client);
      ("spec", Job_spec.to_json job.spec);
      ("status", Obs.Json.String (state_name job.state));
      ( "result",
        match job.result with None -> Obs.Json.Null | Some j -> j );
      ( "error",
        match job.error with
        | None -> Obs.Json.Null
        | Some e -> Obs.Json.String e );
      ("attempts", Obs.Json.Int job.attempts);
      ("resumed", Obs.Json.Bool job.was_resumed);
    ]

(* Manifest persistence without disk IO under the service lock: the
   JSON is rendered by the caller while it still holds [t.m] (a
   consistent view of the job), the write runs after release.  The
   per-job [io] mutex plus the sequence pair keeps concurrent writers
   ordered — a slow older write can never clobber a newer manifest. *)
let persist_later t job =
  job.manifest_seq <- job.manifest_seq + 1;
  let seq = job.manifest_seq in
  let json = manifest_of_job job in
  fun () ->
    Mutex.protect job.io (fun () ->
        if seq > job.persisted_seq then begin
          job.persisted_seq <- seq;
          try Store.write_manifest ~dir:t.cfg.dir job.id json
          with Sys_error _ -> ()
        end)

let job_of_manifest json =
  let ( let* ) = Result.bind in
  let str name =
    match Obs.Json.member name json with
    | Some (Obs.Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "manifest: missing %S" name)
  in
  let* id =
    match Obs.Json.member "id" json with
    | Some (Obs.Json.Int i) -> Ok i
    | _ -> Error "manifest: missing \"id\""
  in
  let* client = str "client" in
  let* status = str "status" in
  let* spec =
    match Obs.Json.member "spec" json with
    | Some s -> Job_spec.of_json_stored s
    | None -> Error "manifest: missing \"spec\""
  in
  let result =
    match Obs.Json.member "result" json with
    | Some Obs.Json.Null | None -> None
    | Some j -> Some j
  in
  let error =
    match Obs.Json.member "error" json with
    | Some (Obs.Json.String e) -> Some e
    | _ -> None
  in
  let attempts =
    match Obs.Json.member "attempts" json with
    | Some (Obs.Json.Int i) -> i
    | _ -> 0
  in
  let was_resumed =
    match Obs.Json.member "resumed" json with
    | Some (Obs.Json.Bool b) -> b
    | _ -> false
  in
  let state =
    match status with
    | "done" -> Finished
    | "failed" -> Failed
    | "cancelled" -> Cancelled
    (* queued / running / interrupted: work to pick back up *)
    | _ -> Queued
  in
  Ok
    {
      id;
      client;
      spec;
      state;
      result;
      error;
      attempts;
      was_resumed;
      cancel = Atomic.make false;
      events = new_log ();
      io = Mutex.create ();
      manifest_seq = 0;
      persisted_seq = 0;
    }

let delete_snapshots t id =
  List.iter
    (fun path -> try Sys.remove path with Sys_error _ -> ())
    (Store.snapshots ~dir:t.cfg.dir id)

(* Runner-thread body: pull the next live queued job, run it outside
   the lock, record the outcome. *)
let rec runner_loop t =
  let next =
    locked t (fun () ->
        let rec pick () =
          if t.draining then None
          else if Queue.is_empty t.queue then begin
            Condition.wait t.cv t.m;
            pick ()
          end
          else
            let id = Queue.pop t.queue in
            match Hashtbl.find_opt t.jobs id with
            | Some job when job.state = Queued ->
                job.state <- Running;
                Some job
            | _ -> pick ()
        in
        pick ())
  in
  match next with
  | None -> ()  (* draining: thread retires *)
  | Some job ->
      (* Full fidelity would be one [Proposed] + one verdict per
         budget tick — megabytes a streaming client never wants.  Keep
         every structural event, stride-sample the proposal stream to
         ~256 lines per job, and drop the per-tick verdicts. *)
      let stride = max 1 (job.spec.Job_spec.budget / 256) in
      let observer =
        Obs.Observer.of_fun (fun ev ->
            let keep =
              match ev with
              | Obs.Event.Proposed { evaluation; _ } ->
                  evaluation mod stride = 0
              | Obs.Event.Accepted _ | Obs.Event.Rejected _ -> false
              | _ -> true
            in
            if keep then begin
              let line = Obs.Json.to_string (Obs.Event.to_json ev) in
              locked t (fun () -> log_push job.events line)
            end)
      in
      let stop () = t.draining || Atomic.get job.cancel in
      let report =
        try
          Runner.run ~observer ~dir:t.cfg.dir ~id:job.id
            ~checkpoint_every:t.cfg.checkpoint_every
            ~max_attempts:t.cfg.max_attempts ~base_delay:t.cfg.base_delay ~stop
            job.spec
        with e ->
          {
            Runner.status = Runner.Failed (Printexc.to_string e);
            attempts = 0;
            resumed = false;
            stale = 0;
            corrupt = 0;
          }
      in
      (* Snapshots are reaped before the terminal state is published: a
         client that sees a job finished, failed or cancelled finds them
         gone.  Only a cancel can change the outcome meanwhile, from
         interrupted to cancelled, and a cancel is never withdrawn, so a
         second pass settles it. *)
      let outcome () =
        match report.Runner.status with
        | Runner.Done _ -> Finished
        | Runner.Halted -> if Atomic.get job.cancel then Cancelled else Interrupted
        | Runner.Failed _ -> Failed
      in
      let reaps state = state <> Interrupted in
      let publish state =
        job.attempts <- job.attempts + report.Runner.attempts;
        if report.Runner.resumed then begin
          job.was_resumed <- true;
          t.c.resumed <- t.c.resumed + 1
        end;
        t.c.stale_snapshots <- t.c.stale_snapshots + report.Runner.stale;
        t.c.corrupt_snapshots <- t.c.corrupt_snapshots + report.Runner.corrupt;
        (match report.Runner.status with
        | Runner.Done json -> job.result <- Some json
        | Runner.Failed reason -> job.error <- Some reason
        | Runner.Halted -> ());
        (match state with
        | Finished -> t.c.completed <- t.c.completed + 1
        | Cancelled -> t.c.cancelled <- t.c.cancelled + 1
        | Interrupted -> t.c.interrupted <- t.c.interrupted + 1
        | Failed -> t.c.failed <- t.c.failed + 1
        | Queued | Running -> ());
        job.state <- state;
        job.events.closed <- true;
        Condition.broadcast t.cv;
        persist_later t job
      in
      let rec settle ~reaped_snapshots =
        if (not reaped_snapshots) && reaps (outcome ()) then begin
          delete_snapshots t job.id;
          settle ~reaped_snapshots:true
        end
        else
          match
            locked t (fun () ->
                let state = outcome () in
                if reaps state && not reaped_snapshots then None
                else Some (publish state))
          with
          | Some flush -> flush ()
          | None -> settle ~reaped_snapshots
      in
      (* Disk work happens off the lock. *)
      settle ~reaped_snapshots:false;
      runner_loop t

let create ?quota_now cfg =
  if cfg.max_queue < 1 then invalid_arg "Service.create: max_queue must be >= 1";
  if cfg.runners < 0 then invalid_arg "Service.create: runners must be >= 0";
  Store.mkdir_p cfg.dir;
  let t =
    {
      cfg;
      quota =
        Quota.create ?now:quota_now ~max_clients:cfg.quota_clients
          ~burst:cfg.quota_burst ~refill:cfg.quota_refill ();
      m = Mutex.create ();
      cv = Condition.create ();
      jobs = Hashtbl.create 64;
      queue = Queue.create ();
      next_id = 1;
      draining = false;
      threads = [];
      c =
        {
          submitted = 0;
          completed = 0;
          failed = 0;
          cancelled = 0;
          interrupted = 0;
          rejected_quota = 0;
          rejected_queue = 0;
          resumed = 0;
          stale_snapshots = 0;
          corrupt_snapshots = 0;
          corrupt_manifests = 0;
        };
    }
  in
  (* Restart scan: terminal manifests reload as history, everything
     else re-queues (ascending id keeps FIFO fairness across the
     restart). *)
  List.iter
    (fun id ->
      t.next_id <- max t.next_id (id + 1);
      match Store.read_manifest ~dir:cfg.dir id with
      | Error _ -> t.c.corrupt_manifests <- t.c.corrupt_manifests + 1
      | Ok payload -> (
          match job_of_manifest payload with
          | Error _ -> t.c.corrupt_manifests <- t.c.corrupt_manifests + 1
          | Ok job ->
              Hashtbl.replace t.jobs job.id job;
              if job.state = Queued then Queue.push job.id t.queue
              else job.events.closed <- true))
    (Store.scan ~dir:cfg.dir);
  t.threads <- List.init cfg.runners (fun _ -> Thread.create runner_loop t);
  t

(* --- JSON views.  These are the service's report sinks: pure
   functions of recorded state, no clock and no RNG, and the lint
   policy holds them to that. --- *)

let job_to_json job =
  Obs.Json.Obj
    (List.concat
       [
         [
           ("id", Obs.Json.Int job.id);
           ("status", Obs.Json.String (state_name job.state));
           ("mode", Obs.Json.String (Job_spec.mode_name job.spec.Job_spec.mode));
           ("attempts", Obs.Json.Int job.attempts);
           ("resumed", Obs.Json.Bool job.was_resumed);
           ("events", Obs.Json.Int job.events.len);
           ("events_dropped", Obs.Json.Int job.events.dropped);
         ];
         (match job.result with
         | None -> []
         | Some j -> [ ("result", j) ]);
         (match job.error with
         | None -> []
         | Some e -> [ ("error", Obs.Json.String e) ]);
       ])

let jobs_to_json ~queue_depth jobs =
  Obs.Json.Obj
    [
      ("queue_depth", Obs.Json.Int queue_depth);
      ( "jobs",
        Obs.Json.List
          (List.map
             (fun job ->
               Obs.Json.Obj
                 [
                   ("id", Obs.Json.Int job.id);
                   ("status", Obs.Json.String (state_name job.state));
                 ])
             jobs) );
    ]

let healthz_to_json ~draining ~queue_depth ~running ~clients c =
  Obs.Json.Obj
    [
      ("status", Obs.Json.String (if draining then "draining" else "ok"));
      ("queue_depth", Obs.Json.Int queue_depth);
      ("running", Obs.Json.Int running);
      ("clients", Obs.Json.Int clients);
      ("submitted", Obs.Json.Int c.submitted);
      ("completed", Obs.Json.Int c.completed);
      ("failed", Obs.Json.Int c.failed);
      ("cancelled", Obs.Json.Int c.cancelled);
      ("interrupted", Obs.Json.Int c.interrupted);
      ("rejected_quota", Obs.Json.Int c.rejected_quota);
      ("rejected_queue", Obs.Json.Int c.rejected_queue);
      ("resumed", Obs.Json.Int c.resumed);
      ("stale_snapshots", Obs.Json.Int c.stale_snapshots);
      ("corrupt_snapshots", Obs.Json.Int c.corrupt_snapshots);
      ("corrupt_manifests", Obs.Json.Int c.corrupt_manifests);
    ]

(* --- HTTP surface --- *)

let json_response ?headers status json =
  Telemetry_http.respond ?headers ~content_type:"application/json" status
    (Obs.Json.to_string json ^ "\n")

let error_response ?headers status msg =
  json_response ?headers status (Obs.Json.Obj [ ("error", Obs.Json.String msg) ])

let running_count t =
  Hashtbl.fold (fun _ job n -> if job.state = Running then n + 1 else n) t.jobs 0

let submit t req ~body =
  let client =
    match Telemetry_http.Request.header req "x-client" with
    | Some c when c <> "" -> c
    | _ -> "anonymous"
  in
  if locked t (fun () -> t.draining) then
    error_response 503 "draining: not admitting new jobs"
  else
    match Quota.admit t.quota ~client with
    | Error retry_after ->
        locked t (fun () -> t.c.rejected_quota <- t.c.rejected_quota + 1);
        error_response
          ~headers:
            [ ("Retry-After", string_of_int (int_of_float (Float.ceil retry_after))) ]
          429 "quota exhausted"
    | Ok () -> (
        match Job_spec.parse ~max_budget:t.cfg.max_budget body with
        | Error e -> error_response 400 e
        | Ok spec ->
            let outcome =
              locked t (fun () ->
                  if t.draining then `Draining
                  else if Queue.length t.queue >= t.cfg.max_queue then begin
                    t.c.rejected_queue <- t.c.rejected_queue + 1;
                    `Full (Queue.length t.queue)
                  end
                  else begin
                    let id = t.next_id in
                    t.next_id <- id + 1;
                    let job =
                      {
                        id;
                        client;
                        spec;
                        state = Queued;
                        result = None;
                        error = None;
                        attempts = 0;
                        was_resumed = false;
                        cancel = Atomic.make false;
                        events = new_log ();
                        io = Mutex.create ();
                        manifest_seq = 0;
                        persisted_seq = 0;
                      }
                    in
                    Hashtbl.replace t.jobs id job;
                    Queue.push id t.queue;
                    t.c.submitted <- t.c.submitted + 1;
                    Condition.signal t.cv;
                    `Admitted (id, persist_later t job)
                  end)
            in
            (match outcome with
            | `Draining -> error_response 503 "draining: not admitting new jobs"
            | `Full depth ->
                json_response 503
                  (Obs.Json.Obj
                     [
                       ("error", Obs.Json.String "queue full");
                       ("queue_depth", Obs.Json.Int depth);
                     ])
            | `Admitted (id, flush) ->
                (* The manifest write happens off the lock but before
                   the 202: an acked job is always durable. *)
                flush ();
                json_response 202
                  (Obs.Json.Obj
                     [
                       ("id", Obs.Json.Int id);
                       ( "path",
                         Obs.Json.String (Printf.sprintf "/jobs/%d" id) );
                     ])))

let get_job t id =
  match locked t (fun () -> Option.map job_to_json (Hashtbl.find_opt t.jobs id)) with
  | None -> error_response 404 "no such job"
  | Some json -> json_response 200 json

(* A cancelled queued job has no useful snapshots (only a re-queued
   interrupted job has any).  As in the runner's [settle], they are
   reaped off the lock before [cancelled] is published; if a runner
   picks the job up meanwhile, the second pass cancels it running. *)
let delete_job t id =
  let rec go ~reaped_snapshots =
    match
      locked t (fun () ->
          match Hashtbl.find_opt t.jobs id with
          | None -> `Missing
          | Some job -> (
              match job.state with
              | Queued when not reaped_snapshots -> `Reap
              | Queued ->
                  job.state <- Cancelled;
                  t.c.cancelled <- t.c.cancelled + 1;
                  job.events.closed <- true;
                  `Cancelled (persist_later t job)
              | Running ->
                  Atomic.set job.cancel true;
                  `Cancelling
              | _ -> `Terminal (state_name job.state)))
    with
    | `Reap ->
        delete_snapshots t id;
        go ~reaped_snapshots:true
    | `Missing -> error_response 404 "no such job"
    | `Cancelled flush ->
        flush ();
        json_response 200 (Obs.Json.Obj [ ("status", Obs.Json.String "cancelled") ])
    | `Cancelling ->
        json_response 202 (Obs.Json.Obj [ ("status", Obs.Json.String "cancelling") ])
    | `Terminal s ->
        json_response 200 (Obs.Json.Obj [ ("status", Obs.Json.String s) ])
  in
  go ~reaped_snapshots:false

(* Follow a job's event log as JSONL chunks: everything recorded so
   far, then new lines as they land, until the log closes.  The poll
   sleep runs outside the lock; 20 Hz is plenty for a human or a
   test. *)
let stream_events t id =
  match locked t (fun () -> Hashtbl.find_opt t.jobs id) with
  | None -> error_response 404 "no such job"
  | Some job ->
      Telemetry_http.stream 200 (fun write ->
          let cursor = ref 0 in
          let finished = ref false in
          while not !finished do
            let batch, closed =
              locked t (fun () ->
                  let fresh = ref [] in
                  while !cursor < job.events.len do
                    fresh := job.events.lines.(!cursor) :: !fresh;
                    incr cursor
                  done;
                  (List.rev !fresh, job.events.closed))
            in
            List.iter (fun line -> write (line ^ "\n")) batch;
            if closed && batch = [] then finished := true
            else if batch = [] then Thread.delay 0.05
          done)

let healthz t =
  json_response 200
    (locked t (fun () ->
         healthz_to_json ~draining:t.draining ~queue_depth:(Queue.length t.queue)
           ~running:(running_count t) ~clients:(Quota.clients t.quota) t.c))

let list_jobs t =
  json_response 200
    (locked t (fun () ->
         let jobs =
           Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
           |> List.sort (fun a b -> compare a.id b.id)
         in
         jobs_to_json ~queue_depth:(Queue.length t.queue) jobs))

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let method_not_allowed allow =
  error_response ~headers:[ ("Allow", allow) ] 405 "method not allowed"

let handle t (req : Telemetry_http.Request.t) ~body =
  match (req.meth, split_path req.path) with
  | "GET", [ "healthz" ] -> healthz t
  | _, [ "healthz" ] -> method_not_allowed "GET, HEAD"
  | "POST", [ "jobs" ] -> submit t req ~body
  | "GET", [ "jobs" ] -> list_jobs t
  | _, [ "jobs" ] -> method_not_allowed "GET, HEAD, POST"
  | meth, [ "jobs"; id ] -> (
      match int_of_string_opt id with
      | None -> error_response 404 "no such job"
      | Some id -> (
          match meth with
          | "GET" -> get_job t id
          | "DELETE" -> delete_job t id
          | _ -> method_not_allowed "GET, HEAD, DELETE"))
  | meth, [ "jobs"; id; "events" ] -> (
      match int_of_string_opt id with
      | None -> error_response 404 "no such job"
      | Some id -> (
          match meth with
          | "GET" -> stream_events t id
          | _ -> method_not_allowed "GET, HEAD"))
  | _ -> error_response 404 "not found"

(* --- Drain --- *)

let drain t =
  let threads =
    locked t (fun () ->
        t.draining <- true;
        Condition.broadcast t.cv;
        let ts = t.threads in
        t.threads <- [];
        ts)
  in
  List.iter Thread.join threads;
  locked t (fun () ->
      (* Close every stream so no client follows a daemon that is
         leaving; queued jobs stay "queued" on disk and resume after
         restart. *)
      Hashtbl.iter (fun _ job -> job.events.closed <- true) t.jobs;
      Condition.broadcast t.cv);
  ignore (Store.sweep ~dir:t.cfg.dir ~keep:t.cfg.keep)

let queue_depth t = locked t (fun () -> Queue.length t.queue)
let draining t = locked t (fun () -> t.draining)

let counters t =
  locked t (fun () ->
      ( t.c.submitted,
        t.c.completed,
        t.c.rejected_quota,
        t.c.rejected_queue,
        t.c.resumed ))

let find_result t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | Some { result = Some json; _ } -> Some json
      | _ -> None)
