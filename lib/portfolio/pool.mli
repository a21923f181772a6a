(** Work-stealing domain pool.

    The portfolio scheduler's sweeps and racing rungs have one shape:
    a fixed set of independent, coarse-grained tasks whose inputs — in
    particular every task's RNG stream — are pinned {e before} any task
    starts, so the results cannot depend on which domain runs what, or
    when.  This module supplies the execution half of that bargain:
    tasks are dealt round-robin into one deque per worker, each worker
    drains its own deque front to back, and a worker whose deque runs
    dry steals from the {e back} of the others — so a straggler worker
    sheds its tail of work instead of serializing the whole run behind
    it.

    The calling domain always participates as worker 0; [domains = 1]
    therefore runs every task in index order on the caller with no
    domain spawned at all, which keeps single-threaded runs exactly as
    debuggable as a plain loop. *)

type t
(** A pool configuration.  Cheap; workers are spawned per {!map} call
    and joined before it returns, so no threads outlive the pool. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] sizes the pool.  [domains] defaults to
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [domains <= 0]. *)

val domains : t -> int
(** The configured worker-domain cap. *)

(** Per-worker scheduling counters, sampled by telemetry.

    Each worker owns one [Atomic] cell per counter, so updating them
    never contends with other workers or with readers; a reader sees
    each counter individually consistent, not a global snapshot.  The
    clock is {e injected} to keep this library dependency-free: pass a
    monotonic seconds-returning function such as [Obs.now], or omit it
    and the busy/idle times stay zero while the integer counters still
    count.  A [Stats.t] may be reused across {!map} calls, in which
    case counters accumulate; {!reset} zeroes them. *)
module Stats : sig
  type t

  val create : ?clock:(unit -> float) -> workers:int -> unit -> t
  (** [create ~clock ~workers ()] allocates counters for [workers]
      workers.  [clock] defaults to [fun () -> 0.] (times disabled).
      @raise Invalid_argument if [workers <= 0]. *)

  val workers : t -> int
  (** Number of worker slots allocated. *)

  val tasks_run : t -> int -> int
  (** [tasks_run t w] is the number of tasks worker [w] completed. *)

  val steals : t -> int -> int
  (** [steals t w] is the number of tasks worker [w] took from another
      worker's deque. *)

  val queue_depth : t -> int -> int
  (** [queue_depth t w] is the number of tasks currently waiting in
      worker [w]'s deque (live only while a run is in flight). *)

  val busy_seconds : t -> int -> float
  (** [busy_seconds t w] is the time worker [w] spent inside tasks. *)

  val idle_seconds : t -> int -> float
  (** [idle_seconds t w] is the time worker [w] spent looking for work
      or waiting for the run to end (wall time minus busy time,
      recorded when the worker exits). *)

  val reset : t -> unit
  (** Zero every counter. *)
end

val map : ?stats:Stats.t -> t -> (worker:int -> int -> 'a) -> int -> 'a array
(** [map t f n] is [[| f ~worker 0; ...; f ~worker (n - 1) |]]: it
    executes [f ~worker i] exactly once for every [i] in [0 .. n - 1],
    on at most [domains t] domains (never more than [n]), and returns
    when every started task has finished.

    [f] is called from worker domains and must confine its mutation to
    per-task state; reading immutable shared inputs is fine.  [worker]
    names the worker slot that executes the call, the hook telemetry
    uses to route a task's events into that worker's metrics shard
    without locking.  Worker numbers are scheduling slots, not domain
    identities: the same task set may land on different workers from
    run to run (except with one domain, where everything runs on
    worker 0 in index order).

    If a task raises, no {e new} task is started anywhere, already
    running tasks complete, and after all workers drain the exception
    of the {e lowest-indexed} failed task is re-raised in the caller —
    a deterministic choice whatever the domain count.

    [stats], when given, receives per-worker counters as the run
    progresses; it must have at least [min (domains t) n] worker slots.
    @raise Invalid_argument if [n < 0], or if [stats] has fewer slots
    than the run has workers. *)
