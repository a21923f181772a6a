(** [Mc_problem.S] adapters exposing linear arrangements to the Monte
    Carlo engines.

    [Swap] is the paper's workhorse: pairwise interchange of two
    positions, with the density objective.  [Relocate] is the "single
    exchange" move of [COHO83a] (remove an element, reinsert it
    elsewhere).  [Swap_sum_cuts] swaps under the smoother
    sum-of-all-cuts objective and exists for the objective-shape
    ablation.  All three price a move by [Arrangement]'s windowed trial,
    so a rejected move costs one trial on the recompute path; only
    [Swap], which the tables, the daemon and the ledger run, also has a
    {!Mc_problem.delta_ops} fast path. *)

module Swap : sig
  include Mc_problem.S with type state = Arrangement.t and type move = int * int

  val delta_ops : (state, move) Mc_problem.delta_ops
  (** Incremental density evaluation via
      {!Arrangement.swap_density_delta};
      commits replay the pending trial.  Exact integer deltas, so the
      fast path is bit-identical to the recompute path. *)
end

module Relocate : Mc_problem.S with type state = Arrangement.t and type move = int * int

module Swap_sum_cuts : Mc_problem.S with type state = Arrangement.t and type move = int * int

val codec : Netlist.t -> Arrangement.t Mc_problem.codec
(** Checkpoint codec: an arrangement serializes as the JSON array of
    its order; decoding rebuilds the incremental cut state from the
    netlist and rejects anything that is not a permutation of its
    elements. *)
