(** The Figure 1 strategy: Metropolis-style random perturbation with
    probabilistic uphill acceptance at a schedule of temperatures.

    Temperature control follows §4.2.1: each of the [k] temperatures
    owns an equal share of the budget; in addition, [counter_limit]
    consecutive rejections advance the temperature early (the [n] of
    Figure 1 Step 4), as does reaching [acceptance_limit] accepted
    moves at the current temperature ([KIRK83]'s equilibrium
    criterion, discussed in §2) — either event at the last temperature
    stops the run.  Both default to [max_int]: pure budget-share
    control, as in the paper's timed tables.

    For [Gfun.defer_uphill] classes the engine applies the paper's
    deferred-uphill rule with threshold [defer_threshold] (default
    18). *)

type snapshot = {
  ticks : int;  (** budget ticks consumed *)
  temp : int;  (** current temperature index (1-based) *)
  counter : int;  (** consecutive rejections at this temperature *)
  accepted_at_temp : int;
  defer_run : int;  (** deferred-uphill run length *)
  initial_cost : float;  (** cost of the very first state of the run *)
  current_cost : float;
  best_cost : float;
  improving : int;
  lateral_accepted : int;
  uphill_accepted : int;
  rejected : int;
  rng : string;  (** [Rng.to_state] of the generator at this point *)
}
(** Resume point captured at a loop top: everything a continuation
    needs besides the two problem states (current and best) and the
    reconstructed RNG.  Deliberately outside {!Make} — it mentions no
    problem types, so the resilience layer can serialize it once for
    all problem domains. *)

module Make (P : Mc_problem.S) : sig
  type params = private {
    gfun : Gfun.t;
    schedule : Schedule.t;
    budget : Budget.t;
    counter_limit : int;
    acceptance_limit : int;
    defer_threshold : int;
  }

  val params :
    ?counter_limit:int ->
    ?acceptance_limit:int ->
    ?defer_threshold:int ->
    gfun:Gfun.t ->
    schedule:Schedule.t ->
    budget:Budget.t ->
    unit ->
    params
  (** @raise Invalid_argument if the schedule length differs from the
      g-function's [k], or a threshold is non-positive. *)

  exception Aborted of { reason : exn; partial : P.state Mc_problem.run }
  (** A mid-walk problem failure (see {!Mc_problem.aborted});
      {!Engine.run} returns it as [Error]. *)

  val run :
    ?observer:Obs.Observer.t ->
    ?checkpoint_every:int ->
    ?on_checkpoint:(snapshot -> current:P.state -> best:P.state -> unit) ->
    ?resume:snapshot * P.state ->
    ?delta_ops:(P.state, P.move) Mc_problem.delta_ops ->
    Rng.t ->
    params ->
    P.state ->
    P.state Mc_problem.run
  (** [run rng params state] perturbs [state] in place until the budget
      is exhausted and returns the best snapshot found.  [state] is
      left at the walk's final configuration.

      With [delta_ops] each proposal is priced by [delta_ops.delta]
      without touching the state, and the accumulated cost resyncs
      against a full [P.cost] on the ticks that are multiples of
      [delta_ops.recost_every], so a resumed run resyncs where its
      uninterrupted twin does (checkpointed [current_cost] values are
      the resynced figures).  Without it each proposal is priced by
      [P.apply] then [P.cost] and dropped by [P.revert].

      [observer] (default {!Obs.null}) receives the full event stream:
      [Run_start], a [Temp_advance] per temperature entered (the first
      included), one [Proposed] per budget tick, [Accepted]/[Rejected]
      wherever the returned statistics count one, [New_best] at every
      strict improvement of the incumbent, a [Span "temp:<i>"] per
      temperature epoch, and [Run_end].

      [on_checkpoint] is called at safe points (loop tops, where no
      move is half-applied): every [checkpoint_every] budget ticks, and
      once more when the walk ends.  The callback may raise to stop the
      run (e.g. after persisting a shutdown checkpoint).

      [resume] restarts a walk from a {!snapshot} plus the decoded best
      state; [state] must be the decoded {e current} state and [rng]
      the generator rebuilt with [Rng.of_state snapshot.rng].  A
      resumed run replays the exact trajectory of its uninterrupted
      counterpart — same proposals, same acceptances, bit-identical
      costs — and its returned statistics are cumulative.

      @raise Mc_problem.Invalid_cost if the {e initial} state's cost is
      non-finite (there is no progress to preserve yet).
      @raise Aborted on mid-walk problem failure; see {!Aborted}.
      @raise Invalid_argument on a non-positive [checkpoint_every] or a
      [resume] snapshot with negative ticks or an out-of-range
      temperature. *)
end
