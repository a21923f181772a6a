(** Heterogeneous portfolio scheduler with racing early-stop.

    The paper's evaluation is itself a portfolio: 21 acceptance-function
    classes × 2 strategies raced on the same instances under equal
    budgets (Tables 4.1–4.2).  This module runs such a portfolio on the
    {!Pool}: each {e job} pairs a label with a Figure 1 walk over any
    g-class and any problem adapter; jobs run on worker domains with
    per-job RNG streams split up front, so every mode below returns
    bit-identical results — and byte-identical reports — for any domain
    count.

    Two modes:

    - {!sweep} runs every job once at the full budget (the paper's
      protocol);
    - {!race} runs successive halving: every surviving job gets a
      budget slice, the worse half is culled, the slice doubles, and
      the process repeats until one job remains.  A job is restarted
      from scratch each rung with a fresh {e copy} of its pinned RNG
      stream, so every rung is exactly reproducible.  For a job whose
      engine walks identically under any budget (a constant-temperature
      class in Figure 1, say), a larger rung replays the previous
      rung's trajectory and extends it; for budget-fraction-scheduled
      jobs (multi-temperature Figure 1) a larger rung re-anneals with a
      proportionally stretched schedule instead — the natural racing
      analogue of the paper's "equal time per method" protocol, though
      it does mean a survivor's best can occasionally {e worsen} from
      one rung to the next.

    Failure is contained per job: a run that aborts mid-walk (the
    [Aborted] machinery of the engines) competes with its best-so-far
    partial and carries the failure reason in its standing; only a job
    whose problem cannot start (non-finite initial cost) is scored
    [infinity] with no evaluations. *)

(** Portfolio entries: Figure 1 walks over any problem adapter. *)
module Job : sig
  type t

  val label : t -> string

  val figure1 :
    (module Mc_problem.S with type state = 's and type move = 'm) ->
    ?delta_ops:('s, 'm) Mc_problem.delta_ops ->
    label:string ->
    gfun:Gfun.t ->
    schedule:Schedule.t ->
    make_state:(Rng.t -> 's) ->
    unit ->
    t
  (** A Figure 1 job.  [make_state] builds the starting configuration
      from the job's stream (draws it consumes are part of the
      trajectory, so racing rungs still extend one another); engine
      aborts are contained as described above.  The job runs once per
      racing rung, each time from a fresh copy of its pinned stream.
      @raise Invalid_argument if the schedule length differs from the
      g-function's [k] (checked now, not at race time). *)
end

type standing = {
  label : string;
  cost : float;  (** best cost of the job's latest run; [infinity] for a job that could not start *)
  final_cost : float;
  evaluations : int;  (** budget ticks of the job's latest run *)
  failure : string option;
      (** [Some reason] when the run aborted mid-walk (the cost fields
          then describe the best-so-far partial) or could not start *)
}

type round = {
  index : int;  (** 1-based rung number *)
  budget_evaluations : int;
      (** per-job evaluation budget of this rung; 0 for wall-clock
          budgets *)
  results : standing list;  (** every job that ran this rung, ranked best first *)
  culled : string list;  (** labels eliminated after this rung *)
}

type report = {
  mode : string;  (** ["race"] or ["sweep"] *)
  jobs : int;
  rounds : round list;  (** in rung order *)
  winner : standing;
  total_evaluations : int;  (** summed over every run of every rung *)
  stopped_early : bool;  (** the deadline fired before one job remained *)
}
(** Deliberately free of wall-clock times and domain counts, so the
    report — and its JSON — is byte-identical for any [domains]. *)

val sweep :
  ?domains:int ->
  ?observer:Obs.Observer.t ->
  ?job_observer:(worker:int -> job:int -> label:string -> Obs.Observer.t) ->
  ?pool_stats:Pool.Stats.t ->
  Rng.t ->
  budget:Budget.t ->
  Job.t list ->
  report
(** Run every job once at [budget]; the winner is the best standing
    (ties broken by list position).  [domains] (default 1) caps the
    worker domains; [observer] receives every job's engine events,
    serialized behind a mutex when [domains > 1] (see
    {!Obs.Observer.serialized}), plus one {!Obs.Event.Rung_standing}
    per job after ranking (rung 1, nothing culled).

    [job_observer], when given, is called once per job run {e on the
    worker domain about to run it} and the observer it returns is teed
    with [observer] for that run only — the telemetry hook that routes
    a job's events into its worker's metrics shard and its own run
    slot.  It must be safe to call concurrently from worker domains and
    must not touch any RNG the jobs use.  [pool_stats] receives the
    pool's per-worker scheduling counters (see {!Pool.Stats}).  Neither
    affects what any job computes: reports stay byte-identical with or
    without them.
    @raise Invalid_argument on an empty job list or [domains <= 0]. *)

val race :
  ?domains:int ->
  ?observer:Obs.Observer.t ->
  ?job_observer:(worker:int -> job:int -> label:string -> Obs.Observer.t) ->
  ?pool_stats:Pool.Stats.t ->
  ?deadline:Budget.t ->
  ?cancel:(unit -> bool) ->
  Rng.t ->
  initial_budget:Budget.t ->
  Job.t list ->
  report
(** Successive halving: rung [r] (1-based) runs every surviving job at
    [Budget.scale (2^(r-1)) initial_budget], then culls the worse half
    (keeping [ceil (n / 2)]) until one job remains.  Ranking is by best
    cost, ties broken by job-list position, jobs that could not start
    last.

    [deadline] is a whole-race allowance checked between rungs: an
    [Evaluations] deadline counts every evaluation consumed by every
    job (deterministic — use this in tests), a [Seconds] deadline reads
    the wall clock.  When it fires with several jobs still alive the
    race stops early, the current leader wins, and the report says
    [stopped_early = true].  [cancel] (default never) is polled at the
    same between-rung points — how sa_labd turns a [DELETE /jobs/:id]
    into a prompt, clean stop with the standings so far.

    After each rung every standing is emitted as an
    {!Obs.Event.Rung_standing} (with [culled] flagged) through
    [observer], from the caller's domain, in ranked order.
    [job_observer] and [pool_stats] behave as in {!sweep}.

    @raise Invalid_argument on an empty job list or [domains <= 0]. *)

val report_to_json : report -> Obs.Json.t
(** The [sa-lab/portfolio-report/v1] document (validated by
    [bench/check_json.exe]): deterministic field order, no wall-clock
    content, hence byte-identical across domain counts. *)
