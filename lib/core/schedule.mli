(** Temperature schedules [Y_1 >= ... >= Y_k].

    Following the paper's convention (§1), a "temperature" [Y_i] is the
    product [k_B * T_i]; the engines index schedules by the 1-based
    temperature number [temp] of Figures 1 and 2. *)

type t

val constant : k:int -> float -> t
(** [k] copies of one temperature (the single-temperature classes use
    [k = 1]). *)

val geometric : y1:float -> ratio:float -> k:int -> t
(** [Y_1 = y1], [Y_{i+1} = ratio * Y_i] — the Kirkpatrick-style
    exponentially decreasing schedule.
    @raise Invalid_argument unless [y1 > 0.] and [0. < ratio <= 1.]. *)

val kirkpatrick : unit -> t
(** The literal [KIRK83] circuit-partition schedule: [Y_1 = 10],
    [Y_i = 0.9 * Y_{i-1}], [k = 6]. *)

val lundy_mees : y1:float -> beta:float -> k:int -> t
(** The Lundy–Mees cooling law [Y_{i+1} = Y_i / (1 + beta * Y_i)]
    ([LUND83], cited in §2 for the convergence theory) — cools fast
    while hot and slows as it freezes.
    @raise Invalid_argument unless [y1 > 0.], [beta >= 0.], [k > 0]. *)

val uniform_points : count:int -> max:float -> t
(** [GOLD84]-style schedule: [count] evenly distributed temperatures in
    [(0, max]], hottest first. *)

val scaled : t -> float -> t
(** Multiply every temperature by a positive factor (used by the tuner
    and the schedule-sensitivity ablation). *)

val length : t -> int
(** The [k] of the schedule. *)

val get : t -> int -> float
(** [get t temp] is [Y_temp] for [1 <= temp <= length t].
    @raise Invalid_argument outside that range. *)

val of_array : float array -> t
(** Explicit schedule (copied).
    @raise Invalid_argument if empty or non-positive. *)
