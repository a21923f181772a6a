(** Schedule-endpoint estimation after [WHIT84].

    The paper's §2 cites [WHIT84] for "guidelines on choosing the
    highest and lowest temperatures in an annealing schedule"; this
    module implements them: sample an infinite-temperature walk,
    measure the cost's standard deviation (hot end) and the smallest
    strictly-uphill step (cold end), and derive a geometric schedule
    between the two.  Both functions take the problem as a first-class
    module: [suggest_schedule (module Tsp_problem) rng tour]. *)

type estimate = {
  sigma : float;  (** stddev of cost along the sampling walk *)
  mean_abs_delta : float;  (** mean |h(j) - h(i)| of proposals *)
  min_uphill : float;  (** smallest positive delta seen (1. if none) *)
  suggested_y1 : float;  (** hot end: [sigma] *)
  suggested_yk : float;  (** cold end: [min_uphill / 3] *)
}

val estimate : (module Mc_problem.S with type state = 's) -> Rng.t -> 's -> estimate
(** [estimate (module P) rng state] walks a copy of [state] for 500
    accepted random moves. *)

val suggest_schedule : (module Mc_problem.S with type state = 's) -> Rng.t -> 's -> Schedule.t
(** Geometric schedule from [suggested_y1] down to [suggested_yk]
    over 6 temperatures. *)
