(** Engine observability: structured run events, a metrics registry,
    and pluggable sinks.

    The engines of [sa_core] accept an optional {!Observer.t} and emit
    one {!Event.t} per notable occurrence of a run — every proposed
    perturbation, every acceptance (tagged improving / lateral /
    uphill), every rejection, every temperature entered, every
    completed descent, every new best, plus wall-clock spans around
    engine phases.  The default observer is {!Observer.null}, which
    costs an uninstrumented run a single predictable branch per event
    site and no allocation, so instrumentation stays always-compiled
    without a measurable throughput tax.

    Sinks compose through {!Observer.tee}: a {!Jsonl} line-per-event
    file writer for offline analysis, a {!Downsample} adapter that thins the
    high-frequency [Proposed] stream with the stride-doubling rule of
    {!Trajectory}, and a {!Metrics} registry (counters, gauges,
    log-bucketed histograms) for end-of-run summaries such as the
    acceptance ratio per temperature or the uphill-delta
    distribution. *)

(** Minimal JSON values: enough to write and re-read event streams and
    benchmark summaries without an external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact one-line rendering.  Non-finite floats render as [null]
      (JSON has no NaN/infinity). *)

  val parse : string -> (t, string) result
  (** Parse one JSON value (surrounding whitespace allowed).  Numbers
      without [.], [e] or [E] parse as [Int], everything else numeric
      as [Float]. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on other constructors. *)

  val to_float : t -> float option
  (** Numeric value of an [Int] or [Float]. *)

  val to_int : t -> int option

  val float_to_string : float -> string
  (** The writer's float rendering: the shortest decimal string that
      round-trips ([%.15g], falling back to [%.17g]), integers as
      [n.0], non-finite values as ["null"].  Exposed so that other text
      formats (the Prometheus exposition in [sa_telemetry]) can render
      histogram bucket bounds with exactly the same digits. *)
end

(** The event taxonomy.  One engine run emits, in order: [Run_start],
    a [Temp_advance] for {e every} temperature entered (including the
    first — so their count equals [temperatures_visited] in
    {!type:Mc_problem.stats}), one [Proposed] per budget tick, an
    [Accepted] or [Rejected] wherever the engine's statistics count
    one, [New_best] at every strict improvement of the incumbent,
    [Descent_done] per Figure-2 descent (or per committed rejectionless
    step), [Span] records around phases, and a final [Run_end]. *)
module Event : sig
  type accept_kind = Improving | Lateral | Uphill

  type t =
    | Run_start of { cost : float }  (** cost of the initial state *)
    | Proposed of { evaluation : int; cost : float }
        (** a perturbation was evaluated; [evaluation] is the budget
            tick (1-based), [cost] the proposed configuration's cost *)
    | Accepted of { kind : accept_kind; cost : float; delta : float }
        (** the last proposal was taken; [delta = cost - previous] *)
    | Rejected of { delta : float }  (** the last proposal was reverted *)
    | New_best of { evaluation : int; cost : float }
    | Temp_advance of { temp : int; y : float }
        (** the engine entered temperature index [temp] with value [y] *)
    | Descent_done of { cost : float; evaluations : int }
        (** Figure 2: a local optimum was reached; rejectionless: one
            configuration-changing step committed.  [evaluations] is
            the total tick count at that point. *)
    | Span of { name : string; seconds : float }
        (** wall-clock duration of a completed engine phase *)
    | Run_end of {
        evaluations : int;
        final_cost : float;
        best_cost : float;
        seconds : float;
      }
    | Checkpoint_written of { path : string; evaluation : int }
        (** a resume snapshot reached stable storage at budget tick
            [evaluation] *)
    | Retry of { label : string; attempt : int; delay : float; reason : string }
        (** the supervisor is about to re-run job [label] after failed
            [attempt], sleeping [delay] seconds first *)
    | Quarantined of { label : string; attempts : int; reason : string }
        (** job [label] exhausted its [attempts] and was pulled from the
            campaign *)
    | Rung_standing of {
        rung : int;
        label : string;
        best_cost : float;
        evaluations : int;
        culled : bool;
      }
        (** the portfolio scheduler finished rung [rung]: job [label]
            stands at [best_cost] after [evaluations] ticks, and
            [culled] says whether successive halving just dropped it *)

  val kind_name : accept_kind -> string
  (** ["improving"], ["lateral"] or ["uphill"]. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result
  (** Inverse of {!to_json} (up to float formatting). *)
end

(** An event consumer.  [null] is the do-nothing observer engines
    default to; emission through it is a single branch. *)
module Observer : sig
  type t

  val null : t
  val of_fun : (Event.t -> unit) -> t

  val enabled : t -> bool
  (** [false] exactly for {!null} — engines test this once per event
      site and skip event construction entirely when disabled. *)

  val emit : t -> Event.t -> unit
  (** No-op on {!null}. *)

  val tee : t list -> t
  (** Broadcast to every enabled observer; collapses to {!null} when
      none is. *)

  val serialized : t -> t
  (** Wrap an observer so that emissions are serialized behind a fresh
      mutex: when several domains share one observer (a portfolio
      sweep or race), a single-domain sink receives one whole event at
      a time, with no torn writes.  The interleaving
      of events {e across} domains still depends on scheduling.
      Returns {!null} unchanged, so a disabled observer stays free. *)
end

val null : Observer.t
(** Alias for {!Observer.null}, for call sites like
    [Engine.run ~observer:Obs.null]. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); the clock used by
    {!Span} and the engines' [Run_end] timing. *)

(** Bounded cost-trajectory recorder with stride-doubling decimation.
    When the buffer fills, every other retained sample is dropped and
    the sampling stride doubles, so arbitrarily long runs keep an
    evenly spread series of at most [capacity] points. *)
module Trajectory : sig
  type t

  val create : int -> t
  (** [create capacity] (minimum 2). *)

  val record : t -> float -> unit

  val count : t -> int
  (** Costs seen (recorded or decimated away). *)

  val stride : t -> int
  (** Current decimation stride (1 until the buffer first fills). *)

  val series : t -> (int * float) array
  (** Retained samples as (sample index, cost), oldest first. *)

  val minimum : t -> float
  (** Smallest cost ever recorded.  @raise Invalid_argument if nothing
      was recorded. *)

  val observer : t -> Observer.t
  (** Records the cost of every [Run_start] and [Proposed] event — an
      engine run observed through it therefore records the initial
      cost plus one cost per proposal, on either evaluator path. *)
end

(** Line-per-event JSONL sink. *)
module Jsonl : sig
  val observer : out_channel -> Observer.t
  (** One {!Event.to_json} line per event; flushes on [Run_end]. *)

  val with_file : string -> (Observer.t -> 'a) -> 'a
  (** [with_file path f] opens [path] for writing, passes the sink to
      [f], and closes it (also on exception). *)

  val read_file : string -> (Event.t list, string) result
  (** Re-read a written trace; blank lines are skipped.  The error
      string names the offending line. *)
end

(** Thins the [Proposed] stream in front of another sink (e.g. a JSONL
    file for a multi-million-evaluation run); every other event passes
    through untouched.  Uses the {!Trajectory} stride-doubling rule
    streamingly: after [capacity] forwarded proposals the stride
    doubles, so a run of [n] proposals forwards
    [O(capacity * log n)] of them. *)
module Downsample : sig
  val observer : ?capacity:int -> Observer.t -> Observer.t
  (** [capacity] defaults to 512 (minimum 2). *)
end

(** Log-bucketed histogram over positive values: bucket [i] covers
    [[base^i, base^{i+1})], stored sparsely, with Welford moments
    ({!Stats.Online}) alongside.  Non-positive or non-finite samples
    land in a separate underflow counter. *)
module Log_hist : sig
  type t

  val create : ?base:float -> unit -> t
  (** [base] defaults to 2.0.  @raise Invalid_argument if [base <= 1]. *)

  val base : t -> float

  val add : t -> float -> unit

  val count : t -> int
  (** Bucketed (positive, finite) samples. *)

  val underflow : t -> int

  val bucket_index : base:float -> float -> int
  (** Index of the bucket containing a positive value:
      [floor (log_base v)], with exact powers of [base] snapped to
      their own bucket despite float log rounding. *)

  val bounds : t -> int -> float * float
  (** [[lo, hi)] of a bucket index. *)

  val buckets : t -> (int * int) list
  (** Non-empty (index, count) pairs, ascending by index. *)

  val merge : t -> t -> t
  (** Combine two histograms into a fresh one.
      @raise Invalid_argument if the bases differ. *)

  val mean : t -> float
  (** Mean of the bucketed samples (0 when empty). *)

  val stddev : t -> float

  val to_json : t -> Json.t
end

(** A named registry of counters, gauges, and {!Log_hist} histograms,
    plus a ready-made engine observer that maintains the standard
    metric set:

    - counters [proposed], [accepted.improving], [accepted.lateral],
      [accepted.uphill], [rejected], [temp_advance], [descents],
      [new_best], per-temperature [proposed.t<i>] / [accepted.t<i>]
      (the acceptance ratio per temperature), and [rung_standings];
    - histogram [uphill_delta] (the uphill move size distribution) and
      [span.<name>] phase durations;
    - gauges [initial_cost], [best_cost], [best_evaluation]
      (time-to-best in budget ticks), [final_cost], [run_seconds],
      [evals_per_sec]. *)
module Metrics : sig
  type t

  val create : unit -> t

  val incr : ?by:int -> t -> string -> unit
  (** Create-on-first-use counter increment.
      @raise Invalid_argument if the name is registered as another
      metric kind. *)

  val set_gauge : t -> string -> float -> unit
  val observe : ?base:float -> t -> string -> float -> unit
  (** Histogram sample; [base] only applies on first use. *)

  val counter : t -> string -> int
  (** 0 for unregistered names. *)

  val gauge : t -> string -> float option
  val histogram : t -> string -> Log_hist.t option

  val names : t -> string list
  (** Sorted. *)

  val merge_into : into:t -> t -> unit
  (** Fold a registry into another: counters add, histograms combine
      through {!Log_hist.merge} (Welford moments via
      [Stats.Online.merge]), gauges last-write-wins.  The telemetry
      layer merges its per-worker shards with this.
      @raise Invalid_argument if a name is registered with different
      metric kinds on the two sides. *)

  val observer : t -> Observer.t
  (** The standard engine instrumentation described above.  Tracks the
      current temperature from [Temp_advance] events; use one observer
      per run. *)

  val acceptance_by_temp : t -> (int * int * int) list
  (** [(temp, accepted, proposed)] rows recovered from the
      per-temperature counters, ascending by temperature. *)

  val to_json : t -> Json.t
  (** Object keyed by metric name, sorted. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable listing, one metric per line, sorted; acceptance
      ratios per temperature appended. *)
end

(** Wall-clock spans around engine phases, reported as {!Event.Span}
    events through an observer (nothing is measured when the observer
    is {!Observer.null}). *)
module Span : sig
  type t

  val enter : Observer.t -> string -> t
  val exit : Observer.t -> t -> unit
  (** Emits [Span {name; seconds}] with the elapsed wall time. *)

  val stack : unit -> string list
  (** The names of the spans currently open {e on this domain},
      outermost first (e.g. [["run"; "temp:3"]]).  Spans entered with a
      null observer do not appear (they are never recorded).  The
      sampling profiler reads this at its evaluation-count cadence. *)

  val depth : unit -> int
  (** [List.length (stack ())] without the list. *)

  val unwind_to : int -> unit
  (** Silently pop this domain's stack down to a previously recorded
      {!depth} — no [Span] events are emitted for the discarded frames.
      Engines call this on abnormal exit so an aborted run cannot leak
      frames into the next run on the same domain. *)
end
