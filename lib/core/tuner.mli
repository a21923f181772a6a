(** Grid search over base temperatures, reproducing the protocol of
    §4.2.1: candidates are scored by total cost reduction over a
    training set under the Figure 1 strategy, and the best base is
    kept for the comparative tables. *)

module Make (P : Mc_problem.S) : sig
  type outcome = {
    base : float;  (** winning candidate *)
    schedule : Schedule.t;  (** [Gfun.schedule gfun base] *)
    total_reduction : float;  (** its training-set score *)
    per_candidate : (float * float) list;  (** (base, score) for all *)
  }

  val grid_search :
    Rng.t ->
    gfun:Gfun.t ->
    candidates:float list ->
    budget:Budget.t ->
    instances:(unit -> P.state) list ->
    outcome
  (** Each candidate base becomes a full schedule through
      {!Gfun.schedule}.  [instances] are thunks producing fresh
      starting states (each candidate sees the same starting
      arrangements, as in the paper).  Deterministic given [rng]'s
      state.

      @raise Invalid_argument if [candidates] or [instances] is
      empty. *)

  val coarse_candidates : float list
  (** A log-spaced ladder from 0.001 to 100 — the grid a 1985 manual
      tuning protocol plausibly explored.  Under it the polynomial
      classes stay badly tuned, matching the paper's Table 4.1. *)

  val default_candidates : float list
  (** [coarse_candidates] extended down to 1e-6 — wide enough that the
      cubic classes (whose g multiplies [h(i)^3]) find a base giving
      acceptance probabilities inside (0, 1).  The wide-vs-coarse gap
      is itself an experiment (ablation A9). *)
end
