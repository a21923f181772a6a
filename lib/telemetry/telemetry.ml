(* Aggregation side of the telemetry layer: metric shards merged
   across workers, a lock-free run table for `sa_lab top`, the
   Prometheus text rendering, and the path router the HTTP listener
   serves from.

   The determinism bargain: everything in this file READS engine
   state carried by events — nothing here touches an RNG stream, and
   nothing here feeds back into what an engine computes.  Reports
   must stay byte-identical with telemetry on or off. *)

(* ------------------------------ Shards --------------------------- *)

module Shards = struct
  (* One registry per worker, each behind its own mutex.  A worker
     only ever takes its own lock (uncontended in steady state); a
     scrape takes each lock briefly while folding the shard into a
     fresh registry, so the hot path never blocks on a reader for
     longer than one merge. *)
  type shard = { metrics : Obs.Metrics.t; lock : Mutex.t }
  type t = shard array

  let create ~workers =
    if workers <= 0 then invalid_arg "Telemetry.Shards.create: workers <= 0";
    Array.init workers (fun _ ->
        { metrics = Obs.Metrics.create (); lock = Mutex.create () })

  let workers (t : t) = Array.length t

  (* A fresh standard-instrumentation observer over worker [w]'s
     shard.  Fresh per call because [Obs.Metrics.observer] tracks the
     current temperature — one observer per engine run. *)
  let observer (t : t) ~worker =
    if worker < 0 || worker >= Array.length t then
      invalid_arg "Telemetry.Shards.observer: worker out of range";
    let shard = t.(worker) in
    let inner = Obs.Metrics.observer shard.metrics in
    Obs.Observer.of_fun (fun ev ->
        Mutex.lock shard.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock shard.lock)
          (fun () -> Obs.Observer.emit inner ev))

  let merged (t : t) =
    let into = Obs.Metrics.create () in
    Array.iter
      (fun shard ->
        Mutex.lock shard.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock shard.lock)
          (fun () -> Obs.Metrics.merge_into ~into shard.metrics))
      t;
    into
end

(* ------------------------------- Runs ---------------------------- *)

module Runs = struct
  type status = Pending | Running | Done | Culled

  let status_name = function
    | Pending -> "pending"
    | Running -> "running"
    | Done -> "done"
    | Culled -> "culled"

  (* One slot per portfolio job.  Every field is an [Atomic] cell, so
     the writer (the one worker currently running the job) never
     locks and a scrape sees each field individually consistent —
     good enough for a dashboard, and torn global snapshots cannot
     happen because each cell is written whole. *)
  type slot = {
    label : string;
    status : status Atomic.t;
    rung : int Atomic.t;
    temp : int Atomic.t;
    y : float Atomic.t;
    evaluations : int Atomic.t;
    proposed : int Atomic.t;
    accepted : int Atomic.t;
    best_cost : float Atomic.t;
    current_cost : float Atomic.t;
    seconds : float Atomic.t;
  }

  type t = slot array

  let create labels =
    if labels = [] then invalid_arg "Telemetry.Runs.create: no jobs";
    Array.of_list
      (List.map
         (fun label ->
           {
             label;
             status = Atomic.make Pending;
             rung = Atomic.make 0;
             temp = Atomic.make 0;
             y = Atomic.make nan;
             evaluations = Atomic.make 0;
             proposed = Atomic.make 0;
             accepted = Atomic.make 0;
             best_cost = Atomic.make nan;
             current_cost = Atomic.make nan;
             seconds = Atomic.make 0.;
           })
         labels)

  let jobs (t : t) = Array.length t
  let label (t : t) j = t.(j).label

  (* How many [Proposed] events a job observer batches locally before
     publishing to the slot.  Keeps the per-proposal cost of live
     telemetry to a couple of ref updates. *)
  let flush_every = 512

  let observer (t : t) ~job =
    if job < 0 || job >= Array.length t then
      invalid_arg "Telemetry.Runs.observer: job out of range";
    let s = t.(job) in
    (* Local accumulators since the last flush; only the worker
       currently running this job touches them. *)
    let evals = ref 0 and proposed = ref 0 and accepted = ref 0 in
    let current = ref nan in
    let unflushed = ref 0 in
    let flush () =
      if !unflushed > 0 then begin
        unflushed := 0;
        Atomic.set s.evaluations !evals;
        Atomic.set s.proposed !proposed;
        Atomic.set s.accepted !accepted;
        Atomic.set s.current_cost !current
      end
    in
    Obs.Observer.of_fun (fun ev ->
        match ev with
        | Obs.Event.Run_start { cost } ->
            evals := 0;
            proposed := 0;
            accepted := 0;
            current := cost;
            unflushed := 0;
            (* A fresh racing rung restarts the job from scratch. *)
            Atomic.incr s.rung;
            Atomic.set s.temp 0;
            Atomic.set s.y nan;
            Atomic.set s.evaluations 0;
            Atomic.set s.proposed 0;
            Atomic.set s.accepted 0;
            Atomic.set s.best_cost cost;
            Atomic.set s.current_cost cost;
            Atomic.set s.status Running
        | Proposed { evaluation; cost } ->
            evals := evaluation;
            incr proposed;
            current := cost;
            incr unflushed;
            if !unflushed >= flush_every then flush ()
        | Accepted { cost; _ } ->
            incr accepted;
            current := cost;
            incr unflushed
        | Rejected _ -> ()
        | New_best { cost; _ } ->
            Atomic.set s.best_cost cost;
            flush ()
        | Temp_advance { temp; y } ->
            Atomic.set s.temp temp;
            Atomic.set s.y y;
            flush ()
        | Run_end { evaluations; final_cost; best_cost; seconds } ->
            evals := evaluations;
            current := final_cost;
            unflushed := 1;
            flush ();
            Atomic.set s.best_cost best_cost;
            Atomic.set s.seconds seconds;
            Atomic.set s.status Done
        | Descent_done _ | Span _ | Checkpoint_written _ | Retry _
        | Quarantined _ | Rung_standing _ ->
            ())

  (* Consumes the scheduler's [Rung_standing] events (emitted from
     the caller's domain between rungs) to mark culled jobs and pin
     the authoritative per-rung numbers. *)
  let standings_observer (t : t) =
    let index = Hashtbl.create (Array.length t) in
    Array.iteri (fun j s -> Hashtbl.replace index s.label j) t;
    Obs.Observer.of_fun (function
      | Obs.Event.Rung_standing { rung; label; best_cost; evaluations; culled }
        -> (
          match Hashtbl.find_opt index label with
          | None -> ()
          | Some j ->
              let s = t.(j) in
              Atomic.set s.rung rung;
              Atomic.set s.best_cost best_cost;
              Atomic.set s.evaluations evaluations;
              if culled then Atomic.set s.status Culled)
      | _ -> ())

  let slot_to_json (s : slot) : Obs.Json.t =
    let flt c =
      let v = Atomic.get c in
      if Float.is_nan v then Obs.Json.Null else Obs.Json.Float v
    in
    Obj
      [
        ("label", String s.label);
        ("status", String (status_name (Atomic.get s.status)));
        ("rung", Int (Atomic.get s.rung));
        ("temp", Int (Atomic.get s.temp));
        ("y", flt s.y);
        ("evaluations", Int (Atomic.get s.evaluations));
        ("proposed", Int (Atomic.get s.proposed));
        ("accepted", Int (Atomic.get s.accepted));
        ("best_cost", flt s.best_cost);
        ("current_cost", flt s.current_cost);
        ("seconds", Float (Atomic.get s.seconds));
      ]

  let to_json (t : t) : Obs.Json.t = List (Array.to_list (Array.map slot_to_json t))
end

(* ---------------------------- Prometheus ------------------------- *)

module Prometheus = struct
  (* Metric names may only contain [a-zA-Z0-9_:]; the registry's
     dotted names map dots (and anything else) to underscores. *)
  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let prefix = "sa_lab_"

  (* Bucket bounds render through the JSON writer's shortest
     round-trip float formatting, NOT %g: two buckets whose bounds
     differ only past %g's default 6 significant digits must not
     collapse into one [le] label. *)
  let bound_string = Obs.Json.float_to_string

  let float_string v =
    if Float.is_nan v then "NaN"
    else if v = Float.infinity then "+Inf"
    else if v = Float.neg_infinity then "-Inf"
    else Obs.Json.float_to_string v

  let render_histogram buf name h =
    let base = sanitize (prefix ^ name) in
    Printf.bprintf buf "# TYPE %s histogram\n" base;
    (* Cumulative counts, as Prometheus requires: each bucket's value
       includes every smaller bucket; [+Inf] counts everything,
       including underflow samples that fit no finite bucket. *)
    let cum = ref 0 in
    List.iter
      (fun (i, count) ->
        cum := !cum + count;
        let _, hi = Obs.Log_hist.bounds h i in
        Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" base (bound_string hi)
          !cum)
      (Obs.Log_hist.buckets h);
    let total = Obs.Log_hist.count h + Obs.Log_hist.underflow h in
    Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" base total;
    Printf.bprintf buf "%s_sum %s\n" base
      (float_string (Obs.Log_hist.mean h *. float_of_int (Obs.Log_hist.count h)));
    Printf.bprintf buf "%s_count %d\n" base total

  let render_metrics buf m =
    List.iter
      (fun name ->
        match Obs.Metrics.histogram m name with
        | Some h -> render_histogram buf name h
        | None -> (
            match Obs.Metrics.gauge m name with
            | Some v ->
                let s = sanitize (prefix ^ name) in
                Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" s s
                  (float_string v)
            | None ->
                let s = sanitize (prefix ^ name) ^ "_total" in
                Printf.bprintf buf "# TYPE %s counter\n%s %d\n" s s
                  (Obs.Metrics.counter m name)))
      (Obs.Metrics.names m)

  let render_pool buf stats =
    let gauge name doc get =
      let s = prefix ^ "pool_" ^ name in
      Printf.bprintf buf "# HELP %s %s\n# TYPE %s gauge\n" s doc s;
      for w = 0 to Pool.Stats.workers stats - 1 do
        Printf.bprintf buf "%s{worker=\"%d\"} %s\n" s w (get w)
      done
    in
    let int_of f w = string_of_int (f stats w) in
    let sec_of f w = float_string (f stats w) in
    gauge "tasks_run" "Tasks completed by this worker"
      (int_of Pool.Stats.tasks_run);
    gauge "steals" "Tasks this worker stole from another deque"
      (int_of Pool.Stats.steals);
    gauge "queue_depth" "Tasks waiting in this worker's deque"
      (int_of Pool.Stats.queue_depth);
    gauge "busy_seconds" "Time this worker spent inside tasks"
      (sec_of Pool.Stats.busy_seconds);
    gauge "idle_seconds" "Time this worker spent waiting for work"
      (sec_of Pool.Stats.idle_seconds)

  let render ?pool_stats metrics =
    let buf = Buffer.create 4096 in
    render_metrics buf metrics;
    Option.iter (render_pool buf) pool_stats;
    Buffer.contents buf
end

(* ------------------------------ Bundle --------------------------- *)

type t = {
  shards : Shards.t;
  runs : Runs.t;
  pool_stats : Pool.Stats.t option;
}

let create ?pool_stats ~workers ~labels () =
  { shards = Shards.create ~workers; runs = Runs.create labels; pool_stats }

let shards t = t.shards
let runs t = t.runs
let pool_stats t = t.pool_stats

(* The hook [Portfolio.sweep]/[race] call once per job run on the
   worker about to run it: shard metrics for this worker teed with
   this job's run slot. *)
let job_observer t ~worker ~job ~label:_ =
  Obs.Observer.tee
    [ Shards.observer t.shards ~worker; Runs.observer t.runs ~job ]

let standings_observer t = Runs.standings_observer t.runs

let pool_json (stats : Pool.Stats.t) : Obs.Json.t =
  let per f = List.init (Pool.Stats.workers stats) (f stats) in
  Obj
    [
      ("workers", Int (Pool.Stats.workers stats));
      ("tasks_run", List (per (fun s w -> Obs.Json.Int (Pool.Stats.tasks_run s w))));
      ("steals", List (per (fun s w -> Obs.Json.Int (Pool.Stats.steals s w))));
      ( "queue_depth",
        List (per (fun s w -> Obs.Json.Int (Pool.Stats.queue_depth s w))) );
      ( "busy_seconds",
        List (per (fun s w -> Obs.Json.Float (Pool.Stats.busy_seconds s w))) );
      ( "idle_seconds",
        List (per (fun s w -> Obs.Json.Float (Pool.Stats.idle_seconds s w))) );
    ]

let snapshot_json t : Obs.Json.t =
  Obj
    (("schema", Obs.Json.String "sa-lab/telemetry/v1")
    :: ("runs", Runs.to_json t.runs)
    ::
    (match t.pool_stats with
    | None -> []
    | Some stats -> [ ("pool", pool_json stats) ]))

let metrics_body t =
  Prometheus.render ?pool_stats:t.pool_stats (Shards.merged t.shards)

(* The router the HTTP listener serves from: status code,
   content type, body. *)
let handler t ~path =
  match path with
  | "/metrics" -> (200, "text/plain; version=0.0.4", metrics_body t)
  | "/runs" ->
      (200, "application/json", Obs.Json.to_string (snapshot_json t) ^ "\n")
  | "/healthz" -> (200, "text/plain", "ok\n")
  | _ -> (404, "text/plain", "not found\n")
