(** Computation budgets.

    The paper compares methods under equal CPU time (§3: "In all of our
    experiments we restricted each method to complete its task in the
    same amount of time").  For machine-independent, deterministic
    reproduction we count {e proposed perturbations} instead: every
    budget is an evaluation count, so a run's length, its temperature
    advances and its checkpoints all fall on exact ticks. *)

type t = Evaluations of int  (** stop after this many proposed perturbations *)

type clock
(** A running budget: the tick count against its limit. *)

val start : t -> clock
(** @raise Invalid_argument on a negative budget. *)

val start_at : ticks:int -> t -> clock
(** [start_at ~ticks budget] is {!start} with the tick counter already
    at [ticks] — how a resumed run re-enters the budget exactly where
    its checkpoint left off.

    @raise Invalid_argument on a negative budget or negative [ticks]. *)

val tick : clock -> unit
(** Record one perturbation evaluation. *)

val ticks : clock -> int
(** Perturbations recorded so far. *)

val exhausted : clock -> bool
(** Whether the budget is spent. *)

val share_end : t -> k:int -> int -> int
(** [share_end (Evaluations n) ~k temp] is ⌈temp·n/k⌉, the first tick
    at which temperatures [1..temp] of a [k]-temperature schedule have
    spent their equal shares of the budget (§4.2.1); the Figure 1 and
    rejectionless engines move past [temp] on that tick.  Computed
    without forming [temp * n], so it cannot overflow for
    [0 <= temp <= k].  For [n * k < 2^53] the test
    [ticks >= share_end budget ~k temp] agrees with the float test
    [float ticks /. float n >= float temp /. float k] on every tick. *)

val scale : float -> t -> t
(** Multiply a budget (used for the 6 s / 9 s / 12 s = 1× / 1.5× / 2×
    presets and the 30× three-minute runs), rounding to the nearest
    evaluation. *)

val evaluations : t -> int
(** The evaluation count of a budget. *)
