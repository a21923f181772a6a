(** The Figure 2 strategy ([COHO83a/b]): descend to a local optimum of
    the systematic neighborhood, then accept a random uphill
    perturbation with probability [g_temp] and descend again.

    The [n] of Figure 2 Steps 4–5, the uphill attempts allowed per
    temperature, is 100.  A finished schedule always restarts while
    budget remains, keeping timed comparisons with Figure 1 fair. *)

module Make (P : Mc_problem.S) : sig
  type params = private { gfun : Gfun.t; schedule : Schedule.t; budget : Budget.t }

  val params : gfun:Gfun.t -> schedule:Schedule.t -> budget:Budget.t -> unit -> params
  (** @raise Invalid_argument if the schedule length differs from the
      g-function's [k]. *)

  exception Aborted of { reason : exn; partial : P.state Mc_problem.run }
  (** Raised when the problem misbehaves mid-walk (non-finite cost →
      {!Mc_problem.Invalid_cost}, or a raising operation); the walk
      state is restored before the raise and [partial] preserves the
      best-so-far and counters. *)

  val run :
    ?observer:Obs.Observer.t ->
    ?delta_ops:(P.state, P.move) Mc_problem.delta_ops ->
    Rng.t ->
    params ->
    P.state ->
    P.state Mc_problem.run
  (** Mutates [state]; returns the best snapshot.  Each tested move of
      the descent and each random perturbation costs one budget tick.

      Descent scans and uphill probes share one evaluator, built from
      [delta_ops] when given and from [P] otherwise.  With [delta_ops]
      every tested move is priced by [delta_ops.delta] alone, so a
      non-improving descent move or a rejected probe costs no
      apply/revert at all.  The accumulated current cost is
      resynchronized against a full [P.cost] recompute once at least
      [delta_ops.recost_every] ticks have passed since the previous
      resync (checked at descent-pass tops and before each probe).
      Without [delta_ops] each tested move is priced by [P.apply] then
      [P.cost] and dropped by [P.revert], byte-identical to previous
      releases.

      @raise Mc_problem.Invalid_cost if the initial state's cost is
      non-finite.
      @raise Aborted on mid-walk problem failure; see {!Aborted}.

      [observer] (default {!Obs.null}) receives one [Proposed] per
      budget tick, [Accepted {kind = Improving}] for every descent
      step taken (tested-but-worse descent moves emit nothing further,
      mirroring the statistics, which do not count them as
      rejections), [Accepted]/[Rejected] for every probe,
      a [Span "descent"] plus [Descent_done] per descent, a
      [Temp_advance] per temperature entered (restarts re-enter
      temperature 1), [New_best], and [Run_start]/[Run_end]. *)
end
