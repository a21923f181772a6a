(** The acceptance-function classes of §3.

    A g-function decides the probability of accepting a perturbation
    that does {e not} strictly improve the objective: the engines draw
    [r] uniform on [0, 1) and accept when [r < g ~temp ~y ~hi ~hj],
    where [hi]/[hj] are the costs before/after the perturbation and
    [y = Y_temp] comes from the schedule.

    A class is data: a name, its number of temperatures [k] and the
    formula it evaluates, one case per row shape of the paper's table.
    [eval] computes that formula, and both flags below are read off it
    rather than set by hand.

    [defer_uphill] holds for the [g = 1] class alone, whose
    straightforward Figure 1 implementation would random-walk; the
    paper instead defers uphill acceptance until 18 consecutive
    non-improving perturbations have been seen (§3) — the engines
    implement that rule when it holds. *)

type t

val name : t -> string
(** Row label, matching Table 4.1. *)

val k : t -> int
(** Number of temperatures the class expects (its schedule length). *)

val uses_temperature : t -> bool
(** [false] for the classes with no [Y] parameters ([g = 1], two-level,
    [COHO83a]); the tables' temperature search skips those. *)

val defer_uphill : t -> bool
val eval : t -> temp:int -> y:float -> hi:float -> hj:float -> float

val check_schedule : caller:string -> t -> Schedule.t -> unit
(** [check_schedule ~caller g s] raises [Invalid_argument] naming
    [caller], [g] and its [k] unless [s] holds [k g] temperatures.  The
    engines' [params] call it. *)

val schedule : t -> float -> Schedule.t
(** [schedule g base] is the class's schedule from one base temperature
    (§4.2.1): [[base]] for [k = 1], the Kirkpatrick geometric shape
    [base * 0.9^i] for [k > 1], and a constant placeholder that [eval]
    ignores for the classes without temperatures.  The tables, the CLI
    and the daemon all build schedules this way. *)

(** {1 The paper's catalog (numbering of §3)} *)

val metropolis : t
(** 1: [k = 1], [e^{-(h(j)-h(i))/Y_1}]. *)

val six_temp_annealing : t
(** 2: [k = 6], [e^{-(h(j)-h(i))/Y_temp}] — classical simulated
    annealing. *)

val annealing : k:int -> t
(** Boltzmann acceptance at an arbitrary schedule length — e.g.
    [k = 25] reproduces the Golden–Skiscim setup ([GOLD84], 25
    uniformly distributed temperatures).  [k = 1] and [k = 6] return
    the catalog's [metropolis] / [six_temp_annealing]. *)

val g_one : t
(** 3: [g = 1] with the deferred-uphill rule. *)

val two_level : t
(** 4: [k = 2], [g_1 = 1], [g_2 = 0.5]. *)

val poly : k:int -> degree:int -> t
(** 5–7 ([k = 1]) and 9–11 ([k = 6], named with a "6 " prefix):
    Linear/Quadratic/Cubic, [Y_temp * h(i)^degree].  Raises
    [Invalid_argument] unless [k] is 1 or 6 and [degree >= 1]. *)

val exponential : k:int -> t
(** 8 ([k = 1]) and 12 ([k = 6]): [(e^{h(i)/Y_temp} - 1)/(e - 1)]. *)

val poly_diff : k:int -> degree:int -> t
(** 13–15 ([k = 1]) and 17–19 ([k = 6]): [Y_temp / (h(j) - h(i))^degree].
    On a lateral move ([hj = hi]) the quotient is defined as
    [+infinity] — certain acceptance, matching Metropolis on a plateau
    — rather than the NaN that [y = 0] would otherwise produce. *)

val exponential_diff : k:int -> t
(** 16 ([k = 1]) and 20 ([k = 6]):
    [(e^{Y_temp/(h(j)-h(i))} - 1)/(e - 1)]; [+infinity] on a lateral
    move, as for {!poly_diff}. *)

val cohoon_sahni : m:int -> t
(** The [COHO83a] function [min(h(i)/(m+5), 0.9)] where [m] is the
    instance's net count (§4.2.2). *)

val custom : name:string -> k:int -> (temp:int -> y:float -> hi:float -> hj:float -> float) -> t
(** A class evaluating an arbitrary function, with [uses_temperature]
    set and [defer_uphill] unset (the benchmark probe wraps each
    catalog class in one to time it; tests build fixtures with it). *)

val catalog : m:int -> t list
(** All 21 rows of Table 4.1 that are g-functions (20 classes +
    [COHO83a]), in the paper's row order. *)

val short_catalog : m:int -> t list
(** The 13 classes retained for Tables 4.2(a)–(d) (§4.3.1 drops
    classes 5–12 for their poor GOLA showing). *)

val find_by_name : m:int -> string -> t option
(** Case-insensitive lookup in [catalog ~m] (the CLI, job submission
    and the job runner). *)
