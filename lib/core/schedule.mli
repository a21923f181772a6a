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

val uniform_points : count:int -> max:float -> t
(** [GOLD84]-style schedule: [count] evenly distributed temperatures in
    [(0, max]], hottest first. *)

val scaled : t -> float -> t
(** Multiply every temperature by a positive factor (used by the
    schedule-sensitivity ablations). *)

val length : t -> int
(** The [k] of the schedule. *)

val get : t -> int -> float
(** [get t temp] is [Y_temp] for [1 <= temp <= length t].
    @raise Invalid_argument outside that range. *)

val of_array : float array -> t
(** Explicit schedule (copied).
    @raise Invalid_argument if empty or non-positive. *)
