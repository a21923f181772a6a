(** Drivers for the paper's evaluation tables on linear arrangement.

    A [context] bundles the two instance suites and the tuned base
    temperatures (the §4.2.1 protocol, {!grid_search}: per
    g-function class, on the GOLA training set, Figure 1 strategy;
    {!Gfun.schedule} turns a base into the class's schedule); the five
    table functions then regenerate Tables 4.1 and 4.2(a)–(d), each
    cell a {!Suites.total_reduction}.

    Budgets follow [Suites.seconds] scaled by [config.scale], the
    three-minute runs of Table 4.2(b) and the grid-search runs
    included. *)

type config = {
  scale : float;  (** multiplies every per-instance budget *)
  wide_tuning : bool;
      (** false (default) uses {!coarse_candidates}, the grid a
          1985 manual protocol plausibly used — required to reproduce
          the paper's badly-tuned polynomial classes.  true uses
          {!wide_candidates}, which makes every class competitive
          (ablation A9). *)
  seed : int;  (** master seed for the Monte Carlo runs *)
}

val default_config : config
(** [scale = 1.], [wide_tuning = false], [seed = 42]. *)

val tuning_seconds : float
(** Paper-seconds per grid-search run (6.), before [config.scale]. *)

val grid_search :
  Rng.t -> Suites.linarr_suite -> gfun:Gfun.t -> candidates:float list -> budget:Budget.t -> float
(** [grid_search rng suite ~gfun ~candidates ~budget] is the winning
    base temperature of the §4.2.1 protocol: each candidate base
    becomes a schedule through {!Gfun.schedule} and is scored by the
    {!Suites.total_reduction} of Figure 1 runs from the suite's shared
    random starts, on its own [Rng.split rng] taken in candidate
    order.  The first candidate with the largest total wins.
    Deterministic given [rng]'s state.

    @raise Invalid_argument if [candidates] is empty. *)

val coarse_candidates : float list
(** A log-spaced ladder from 0.001 to 100 — the grid a 1985 manual
    tuning protocol plausibly explored.  Under it the polynomial
    classes stay badly tuned, matching the paper's Table 4.1. *)

val wide_candidates : float list
(** [coarse_candidates] extended down to 1e-6 — wide enough that the
    cubic classes (whose g multiplies [h(i)^3]) find a base giving
    acceptance probabilities inside (0, 1).  The wide-vs-coarse gap
    is itself an experiment (ablation A9). *)

type context

val make_context : config -> context
(** Builds the GOLA and NOLA suites and tunes every
    temperature-bearing class.  This is the expensive step; reuse the
    context across tables. *)

val config_of : context -> config

val gola_suite : context -> Suites.linarr_suite

val tuned_bases : context -> (string * float) list
(** (class name, winning base temperature) — for the report. *)

val schedule_of : context -> Gfun.t -> Schedule.t
(** [Gfun.schedule] of the class at its tuned base (at base 1. for a
    class the context did not tune). *)

val table_4_1 : context -> Report.t
(** GOLA, Figure 1, random starts: total density reduction over the 30
    instances at 6/9/12 s for Goto + the 21 g-function rows.  Computed
    once per context; later calls return the same report. *)

val table_4_2a : context -> Report.t
(** GOLA, Figure 1, Goto starts: improvement over the Goto
    arrangements, 13 classes. *)

val table_4_2b : context -> Report.t
(** GOLA, 3 minutes per instance, random starts: Figure 1 vs Figure 2,
    13 classes. *)

val table_4_2c : context -> Report.t
(** NOLA, Figure 1, random starts: Goto + 13 classes at 6/9/12 s. *)

val table_4_2d : context -> Report.t
(** NOLA, Figure 1, Goto starts: 13 classes at 6/9/12 s. *)

val tuning_table : context -> Report.t
(** The §4.2.1 by-product: winning base temperature per class. *)
