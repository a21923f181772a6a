(** Rejection-free engine after [GREE84]: every step scans the whole
    neighborhood, weights each move by its acceptance probability under
    the g-function, and samples one — no move is ever "rejected".

    Used by the A3 ablation to reproduce the paper's §2 remark that the
    method trades time (here: a full neighborhood scan per step,
    charged to the budget) against the acceleration of never idling at
    low temperatures.  In the run's stats, [descents] holds the number
    of configuration changes (steps) and [rejected] the scan overhead
    ([evaluations - steps]). *)

module Make (P : Mc_problem.S) : sig
  type params = private { gfun : Gfun.t; schedule : Schedule.t; budget : Budget.t }

  val params : gfun:Gfun.t -> schedule:Schedule.t -> budget:Budget.t -> params
  (** @raise Invalid_argument on schedule/g-function length mismatch. *)

  exception Aborted of { reason : exn; partial : P.state Mc_problem.run }
  (** Raised when the problem misbehaves mid-scan (non-finite cost →
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
  (** @raise Mc_problem.Invalid_cost if the initial state's cost is
      non-finite.
      @raise Aborted on mid-scan problem failure; see {!Aborted}.

      The sweep is one loop over an evaluator built from [delta_ops]
      when given and from [P] otherwise.  With [delta_ops] every move
      is priced by [delta_ops.delta] alone and left pending (the sweep
      touches the state only when the sampled move is committed),
      unweighted and unsampled moves are released through
      [delta_ops.abandon], and the accumulated current cost is
      resynchronized against a full [P.cost] recompute once at least
      [delta_ops.recost_every] ticks have passed since the previous
      resync (checked at step boundaries).  [delta_ops.propose] is
      unused here — this engine enumerates [P.moves] systematically.
      Without [delta_ops] each move is priced by [P.apply], [P.cost]
      and [P.revert], and the sampled one is applied afresh,
      byte-identical to previous releases.

      [observer] (default {!Obs.null}) receives one [Proposed] per
      neighborhood evaluation, an [Accepted] plus a [Descent_done] per
      committed step, a [Temp_advance] per temperature entered,
      [New_best], and [Run_start]/[Run_end].  No [Rejected] events are
      emitted — this engine never rejects; the scan overhead the stats
      report under [rejected] is the difference between [Proposed] and
      [Descent_done] counts. *)
end
