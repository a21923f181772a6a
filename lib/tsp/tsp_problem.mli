(** [Mc_problem.S] adapter for tours: the perturbation is a 2-opt
    segment reversal, the objective the tour length.  A reversal is its
    own inverse, so [revert] re-applies the move. *)

include Mc_problem.S with type state = Tour.t and type move = int * int

val delta_ops : (state, move) Mc_problem.delta_ops
(** Incremental-evaluation capability over [Tour.two_opt_delta]: a
    rejected 2-opt proposal is priced in O(1) with no segment reversal
    at all.  Proposals replay [random_move]'s RNG draws, and
    [Tour.two_opt] maintains the cached length by the same delta, so
    the fast path visits bit-identical costs and accept/reject
    decisions as the full-recompute path. *)
