(** Ablations for the design choices DESIGN.md calls out.

    A1 backs the paper's conclusion 1 (§4.2.5) — performance of the
    temperature-bearing classes is schedule-sensitive while [g = 1] has
    nothing to tune.  A2 probes the magic constant 18 of the
    deferred-uphill rule (§3).  A3 sets the Figure 1 engine against the
    rejectionless engine of [GREE84] at an equal budget.  A4–A7 and A9
    vary one more design choice each.  Every cell is a
    {!Suites.total_reduction} over the context's GOLA suite; A3 and A5
    read their extra columns (steps per evaluation, mean evaluations
    used) from the runs {!Suites.runs} returns.  A8, which needs no
    tuned context, lives in {!Ext_tables}. *)

val table_schedule_sensitivity : Linarr_tables.context -> Report.t
(** Six-temperature annealing under the tuned schedule scaled by
    0.25/0.5/1/2/4, 12 s budget, GOLA suite; [g = 1] reference row. *)

val table_defer_threshold : Linarr_tables.context -> Report.t
(** [g = 1] with deferred-uphill thresholds 1, 2, 4, 8, 18, 32, 64
    and 256 at 12 s on the GOLA suite (paper value: 18; threshold 1 is
    the pure random walk the rule exists to avoid). *)

val table_rejectionless : Linarr_tables.context -> Report.t
(** Figure 1 vs the rejectionless engine, six-temperature annealing and
    Metropolis, equal 12 s budgets on the GOLA suite; also reports the
    fraction of evaluations that changed the configuration. *)

val table_schedule_shapes : Linarr_tables.context -> Report.t
(** A4: Boltzmann acceptance under different schedule constructions at
    equal budgets — the tuned geometric k = 6 ([KIRK83] shape), the
    [GOLD84] 25 uniformly distributed temperatures, the [WHIT84]
    estimate, a single tuned Metropolis temperature, and [g = 1] as
    the reference. *)

val table_temperature_control : Linarr_tables.context -> Report.t
(** A5: how the Figure 1 engine advances temperatures — pure
    budget-share (the paper's timed protocol), rejection-counter
    limits (Figure 1's [n]), and acceptance-count limits ([KIRK83]'s
    equilibrium criterion) — six-temperature annealing, 12 s. *)

val table_neighborhood : Linarr_tables.context -> Report.t
(** A6: pairwise interchange vs the [COHO83a] "single exchange"
    (remove-and-reinsert) perturbation, for six-temperature annealing
    and [g = 1] at equal budgets (GOLA, 12 s).  [COHO83a] §4.2.2
    reports experimenting with exactly these two. *)

val table_objective_surrogate : Linarr_tables.context -> Report.t
(** A7: minimizing density directly vs minimizing the smoother
    sum-of-cuts surrogate and reading off the resulting density
    (GOLA, 12 s, g = 1 and six-temperature annealing). *)

val table_tuning_grid : Linarr_tables.context -> Report.t
(** A9: how much of Table 4.1's class spread is just tuning-grid
    resolution.  The polynomial classes need base temperatures around
    [1/h(i)^3] ~ 1e-5, outside any plausible 1985 manual grid; tuned
    on the coarse grid they reproduce the paper's poor rows, tuned on
    the wide grid they close most of the gap — backing the paper's
    conclusion 4. *)
