(** The Figure 2 strategy ([COHO83a/b]): descend to a local optimum of
    the systematic neighborhood, then accept a random uphill
    perturbation with probability [g_temp] and descend again.

    The [n] of Figure 2 Steps 4–5, the uphill attempts allowed per
    temperature, is 100.  A finished schedule always restarts while
    budget remains, keeping timed comparisons with Figure 1 fair. *)

val run :
  (module Mc_problem.S with type state = 's and type move = 'm) ->
  ?observer:Obs.Observer.t ->
  ?delta_ops:('s, 'm) Mc_problem.delta_ops ->
  gfun:Gfun.t ->
  schedule:Schedule.t ->
  budget:Budget.t ->
  Rng.t ->
  's ->
  ('s Mc_problem.run, 's Mc_problem.aborted) result
(** {!Engine.run} for [Figure2].  Each tested move of the descent and
    each random perturbation costs one budget tick; with [delta_ops], a
    non-improving descent move or a rejected probe costs no
    apply/revert, and the accumulated cost resyncs at descent-pass tops
    and before each probe.

    [observer] receives one [Proposed] per budget tick, [Accepted {kind
    = Improving}] for every descent step taken (tested-but-worse descent
    moves emit nothing further, mirroring the statistics, which do not
    count them as rejections), [Accepted]/[Rejected] for every probe, a
    [Span "descent"] plus [Descent_done] per descent, a [Temp_advance]
    per temperature entered (restarts re-enter temperature 1),
    [New_best], and [Run_start]/[Run_end]. *)
