(** The sa_labd core: admission, queueing, execution, durability.

    A service owns a state directory, a bounded admission queue, a
    per-client token-bucket quota, and a pool of runner systhreads
    executing jobs through {!Runner}.  Its HTTP surface is a single
    {!handle} function meant for {!Telemetry_http.start_routed}:

    - [POST /jobs] — admit a {!Job_spec} (202 with the id; 400 on a
      bad spec; 429 + [Retry-After] over quota; 503 when the queue is
      full or the daemon is draining — saturation is always an error
      status, never unbounded memory);
    - [GET /jobs] — id/status summary of every known job;
    - [GET /jobs/:id] — full record including the result;
    - [GET /jobs/:id/events] — the job's event log as chunked JSONL,
      following until the job reaches a terminal state;
    - [DELETE /jobs/:id] — cancel (queued jobs immediately; running
      jobs stop at their next checkpoint);
    - [GET /healthz] — queue depth and lifetime counters.

    Unknown methods on known routes answer 405 with [Allow].

    Restart is a scan of the state directory: terminal manifests
    reload as history, queued/running/interrupted jobs re-queue, and
    their walks resume from the newest clean snapshot, bit-identically
    to an uninterrupted run. *)

type config = {
  dir : string;  (** state directory (created if missing) *)
  max_queue : int;  (** admission queue bound; beyond it, 503 *)
  runners : int;  (** runner threads; 0 admits but never executes *)
  quota_burst : int;
  quota_refill : float;  (** tokens per second, per client *)
  quota_clients : int;  (** bucket-table bound; see {!Quota.create} *)
  checkpoint_every : int;  (** snapshot cadence in budget ticks *)
  keep : int;  (** snapshots retained per job by the sweep *)
  max_budget : int;  (** largest admissible job budget *)
  max_attempts : int;  (** supervisor attempts per anneal job *)
  base_delay : float;  (** supervisor backoff base, seconds *)
}

val default_config : dir:string -> config
(** 64-deep queue, 2 runners, 16-burst quota refilling 4/s over at
    most 1024 tracked clients, checkpoints every 1000 ticks keeping 3,
    10M-tick budget cap, 3 attempts backing off from 50 ms. *)

type t

val create : ?quota_now:(unit -> float) -> config -> t
(** Create the state directory if needed, scan it for prior jobs,
    re-queue the unfinished ones, and start the runner threads.
    [quota_now] injects the quota clock for tests.
    @raise Invalid_argument if [max_queue < 1] or [runners < 0]. *)

val handle : t -> Telemetry_http.Request.t -> body:string -> Telemetry_http.response
(** The routing function for {!Telemetry_http.start_routed}.  Safe to
    call from any thread. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting (503), let every running job
    checkpoint and halt, join the runner threads, close all event
    streams, and sweep stale snapshots.  Queued and halted jobs stay
    on disk as resumable work.  Idempotent.  Call {e before}
    {!Telemetry_http.stop} so open streams terminate. *)

val queue_depth : t -> int
val draining : t -> bool

val counters : t -> int * int * int * int * int
(** (submitted, completed, rejected by quota, rejected by queue
    bound, resumed), for tests that hold the service to its counts. *)

val find_result : t -> int -> Obs.Json.t option
(** The result document of a finished job, if any. *)
