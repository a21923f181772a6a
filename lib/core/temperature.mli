(** Schedule-endpoint estimation after [WHIT84].

    The paper's §2 cites [WHIT84] for "guidelines on choosing the
    highest and lowest temperatures in an annealing schedule"; this
    module implements them: sample an infinite-temperature walk,
    measure the cost's standard deviation (hot end) and the smallest
    strictly-uphill step (cold end), and derive a geometric schedule
    between the two. *)

type estimate = {
  sigma : float;  (** stddev of cost along the sampling walk *)
  mean_abs_delta : float;  (** mean |h(j) - h(i)| of proposals *)
  min_uphill : float;  (** smallest positive delta seen (1. if none) *)
  suggested_y1 : float;  (** hot end: [sigma] *)
  suggested_yk : float;  (** cold end: [min_uphill / 3] *)
}

module Make (P : Mc_problem.S) : sig
  val estimate : Rng.t -> P.state -> estimate
  (** Walks a copy of [state] for 500 accepted random moves. *)

  val suggest_schedule : Rng.t -> P.state -> Schedule.t
  (** Geometric schedule from [suggested_y1] down to [suggested_yk]
      over 6 temperatures. *)
end
