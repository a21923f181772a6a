(** Rejection-free engine after [GREE84]: every step scans the whole
    neighborhood, weights each move by its acceptance probability under
    the g-function, and samples one — no move is ever "rejected".

    Used by the A3 ablation to reproduce the paper's §2 remark that the
    method trades time (here: a full neighborhood scan per step,
    charged to the budget) against the acceleration of never idling at
    low temperatures.  In the run's stats, [descents] holds the number
    of configuration changes (steps) and [rejected] the scan overhead
    ([evaluations - steps]). *)

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
(** {!Engine.run} for [Rejectionless].  The sweep enumerates [P.moves],
    so [delta_ops.propose] is unused; with [delta_ops] every move is
    priced by [delta] alone and left pending until the sampled one is
    committed (the others go through [abandon]), and the accumulated
    cost resyncs at step boundaries.

    [observer] receives one [Proposed] per neighborhood evaluation, an
    [Accepted] plus a [Descent_done] per committed step, a
    [Temp_advance] per temperature entered, [New_best], and
    [Run_start]/[Run_end].  No [Rejected] events are emitted — this
    engine never rejects; the scan overhead the stats report under
    [rejected] is the difference between [Proposed] and [Descent_done]
    counts. *)
