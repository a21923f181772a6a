(** [Mc_problem.S] adapter for balanced bipartitions: the perturbation
    exchanges one element from each side (preserving balance), the
    objective is the cut.  A swap is its own inverse. *)

include Mc_problem.S with type state = Bipartition.t and type move = int * int
