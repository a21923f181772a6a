(** Deterministic descent for linear arrangements.

    The non-Monte-Carlo baseline: plain pairwise-interchange hill
    climbing (the "perturb until no perturbation results in a
    decrease" of Figure 2 Step 2, run in isolation). *)

type descent_report = {
  moves_taken : int;  (** improving swaps applied *)
  moves_tested : int;  (** swap evaluations performed *)
  final_density : int;
}

val pairwise_descent : Arrangement.t -> descent_report
(** Descend in place to a pairwise-interchange local optimum, taking
    the first improving swap of each scan. *)
