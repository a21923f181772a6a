(** The step machinery {!Figure1}, {!Figure2} and {!Rejectionless}
    share — internal to the engines.

    An engine opens the run's {e books} ({!Make.t}: current and best
    cost, best snapshot, counters), builds one {e evaluator} from either
    the problem itself or its {!Mc_problem.delta_ops}, and then runs a
    single step loop: [propose], [price] (an absolute candidate cost,
    left in the books' [hj]), and [keep] or [drop].  Each evaluator's sequence of calls into the
    problem and its [delta_ops] is observable (fault-injection plans
    count calls, the Contract sanitizer pairs them), and the recompute
    one matches the engines' releases from before [delta_ops] existed;
    [test/test_golden.ml] pins the resulting event streams. *)

type costs = {
  mutable hi : float;  (** cost of the current state *)
  mutable hj : float;  (** cost of the candidate last priced *)
  mutable best_cost : float;  (** the best cost seen *)
  mutable snap_cost : float;  (** cost of the best snapshot *)
}
(** The books' costs.  Every field is a float, so OCaml stores them
    flat: setting one boxes nothing, and an engine reads the candidate's
    cost from [hj] rather than from a boxed return. *)

module Make (P : Mc_problem.S) : sig
  exception Aborted of { reason : exn; partial : P.state Mc_problem.run }
  (** Figure 1 re-exports this as its own [Aborted]; Figure 2 and the
      rejection-free engine return it as an [Error]. *)

  type t = {
    state : P.state;
    clock : Budget.clock;
    observer : Obs.Observer.t;
    observing : bool;
    span_depth : int;  (** span-stack floor an abort unwinds to *)
    run_span : Obs.Span.t;
    t0 : float;
    costs : costs;
    mutable best : P.state;
        (** the latest snapshot, of cost [costs.snap_cost]; stale while
            [live] — read it through {!best} *)
    mutable live : bool;
        (** the best seen is the current state, not yet copied into
            [best] *)
    mutable improving : int;
    mutable lateral : int;
    mutable uphill : int;
    mutable rejected : int;
    mutable temperatures : int;  (** reported as [temperatures_visited] *)
    mutable descents : int;
    mutable last_resync : int;
        (** tick of the last resync; {!of_delta} starts it at the last
            multiple of [recost_every] before the clock's ticks, or at 0 *)
  }

  val start :
    ?resume:float * float * P.state ->
    observer:Obs.Observer.t ->
    Budget.clock ->
    P.state ->
    t
  (** Open the books on [state]: price it (or take [(current cost,
      best cost, best state)] from [resume]), copy the best, emit
      [Run_start] and enter the ["run"] span.  Counters start at zero
      and [temperatures] at 1.
      @raise Mc_problem.Invalid_cost if the initial cost is non-finite. *)

  val emit : t -> Obs.Event.t -> unit

  val best : t -> P.state * float
  (** The best state and its cost, copying the current state first if
      the best is still live.  {!finish}, {!abort} and Figure 1's
      checkpoints read the best through it. *)

  val abort : t -> exn -> 'a
  (** Unwind the span stack and raise {!Aborted} with [reason] and the
      books as they stand. *)

  val finish : t -> P.state Mc_problem.run
  (** Exit the ["run"] span, emit [Run_end], and return the run. *)

  val enter_temp : t -> Schedule.t -> int -> unit
  (** Emit [Temp_advance] for temperature index [i]. *)

  val note_best : t -> unit
  (** If the current cost beats the best, record it as the best cost,
      mark the current state as the live best and emit [New_best].  No
      copy is taken: the walk copies a live best only when it leaves
      it (see {!accept}). *)

  type evaluator = {
    propose : Rng.t -> P.move;
    price : P.move -> unit;
        (** Charge one budget tick, price the move to the candidate's
            absolute cost, set [costs.hj] to it, and emit [Proposed].
            The move stays pending until [keep] or [drop]. *)
    keep : P.move -> unit;
    drop : P.move -> unit;
    recost_every : int;
        (** Resync cadence in ticks; [max_int] (never due) when every
            price is a full recompute. *)
  }
  (** Every operation aborts (via {!abort}) when the problem raises or
      prices a move at a non-finite cost, with the state restored. *)

  val maybe_resync : t -> evaluator -> unit
  (** Once [recost_every] ticks have passed since the last resync,
      replace the current cost with a full [P.cost] recompute, then
      {!note_best}; a recompute equal to the current cost changes
      nothing.  Aborts on a raising or non-finite cost.  Engines
      call it only where no move is half-applied; an engine that checks
      at every tick resyncs exactly at the multiples of
      [recost_every]. *)

  val accept : t -> evaluator -> P.move -> unit
  (** Take the priced move [m] to its cost [costs.hj]: copy a live best
      first unless [hj] beats it, [keep] the move, count it as
      improving, lateral or uphill, emit [Accepted], and make [hj] the
      current cost.  A move that beats a live best is kept with the best no
      longer live, so a [keep] that raises aborts with the previous
      snapshot and that snapshot's own cost; the engine's next
      {!note_best} records the better best. *)

  val recompute : ?restore:bool -> t -> evaluator
  (** Price by [P.apply] then [P.cost]; [keep] does nothing, [drop] is
      [P.revert].  With [restore] (for a sweep that holds several priced
      moves pending at once) [price] reverts right after the cost,
      [keep] applies the move afresh and [drop] does nothing.  Every
      [P.apply] copies a live best first, since the state leaves it. *)

  val of_delta : t -> (P.state, P.move) Mc_problem.delta_ops -> evaluator
  (** Price as the current cost plus [delta]; [keep] is [commit], [drop]
      is [abandon]. *)

  val reject : t -> evaluator -> P.move -> unit
  (** Emit [Rejected] for the move priced at [costs.hj], [drop] it and
      count the rejection. *)
end
