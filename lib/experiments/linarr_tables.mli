(** Drivers for the paper's evaluation tables on linear arrangement.

    A [context] bundles the two instance suites and the tuned base
    temperatures (the §4.2.1 protocol: grid search per g-function class
    on the GOLA training set, Figure 1 strategy; {!Gfun.schedule} turns
    a base into the class's schedule); the five table functions then
    regenerate Tables 4.1 and 4.2(a)–(d), each cell a
    {!Suites.total_reduction}.

    Budgets follow [Suites.seconds] scaled by [config.scale], the
    three-minute runs of Table 4.2(b) and the grid-search runs
    included. *)

type config = {
  scale : float;  (** multiplies every per-instance budget *)
  wide_tuning : bool;
      (** false (default) uses [Tuner.coarse_candidates], the grid a
          1985 manual protocol plausibly used — required to reproduce
          the paper's badly-tuned polynomial classes.  true extends the
          grid to 1e-6, which makes every class competitive (ablation
          A9). *)
  seed : int;  (** master seed for the Monte Carlo runs *)
}

val default_config : config
(** [scale = 1.], [wide_tuning = false], [seed = 42]. *)

val tuning_seconds : float
(** Paper-seconds per grid-search run (6.), before [config.scale]. *)

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
