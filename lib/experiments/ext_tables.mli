(** The tables that need no tuned context: extensions E1–E7, the
    scaling study S1 and the run-to-run variance ablation A8.

    §5 of the paper reports that the same experiments were run on the
    travelling salesperson and circuit-partition problems ([NAHA84]);
    E1 and E2 reproduce that protocol: simulated annealing and [g = 1]
    under equal budgets against the problems' classical heuristics (the
    [GOLD84] comparison for TSP, [KIRK83]'s own problem for partition).
    E3, E5, E6 and E7 repeat it on placement, global wiring, slicing
    floorplans and quadratic assignment; E4 checks convergence to the
    exact optimum on small instances.  Each table is a function of a
    seed and a budget [scale] alone; every run gets a stream seeded by
    its row name and instance index (S1's by its size and instance
    index; A8 splits its streams with {!Suites.total_reduction}).  Every
    Monte Carlo row is a Figure 1 walk through {!Engine.run} over a
    first-class {!Mc_problem.S}; E3, E5, E6 and E7 share their three
    Monte Carlo rows (six-temperature annealing on the [WHIT84]
    schedule, Metropolis, [g = 1]), and S1 runs its sizes as
    {!Suites.linarr_suite}s through {!Suites.runs}. *)

val table_tsp : seed:int -> scale:float -> Report.t
(** Rows: constructive heuristics (nearest neighbor, cheapest
    insertion, hull+insertion — the CCAO stand-in), 2-opt descent and
    restarts, and the Monte Carlo methods (six-temperature annealing,
    Metropolis, [g = 1]) at an equal evaluation budget.  Columns: mean
    tour length and mean excess over the best method, over 5 uniform
    instances of 60 cities. *)

val table_partition : seed:int -> scale:float -> Report.t
(** Rows: Kernighan–Lin and Fiduccia–Mattheyses (single and best-of-5),
    six-temperature annealing with the literal [KIRK83] schedule
    (Y1 = 10, ratio 0.9), a [WHIT84]-estimated schedule, Metropolis,
    and [g = 1], on 5 random graphs of 80 elements and 200 edges.
    Columns: total cut over the suite and mean cut. *)

val table_scaling : seed:int -> scale:float -> Report.t
(** S1: does the paper's GOLA conclusion survive instance growth?  The
    paper only measures 15-element instances; this table re-runs Goto,
    [g = 1], six-temperature annealing ([WHIT84]-estimated schedule, as
    the 15-element tuning does not transfer), and cubic difference at
    15 / 25 / 40 elements (nets = 10 × elements, 10 instances per
    size), with budgets scaled by the neighborhood size n(n-1)/2.
    Cells: total density reduction per size. *)

val table_placement : seed:int -> scale:float -> Report.t
(** E3: gate-array placement, the [KANG83]/[KIRK83] application of
    §4.1.  5 instances of 48 cells on a 6 × 8 grid with 120 nets,
    objective half-perimeter wirelength,
    moves exchanging two slots.  Rows: random start, Goto-order
    row-major seeding, budget-charged swap descent, six-temperature
    annealing ([WHIT84] schedule), Metropolis, [g = 1]. *)

val table_convergence : seed:int -> scale:float -> Report.t
(** E4: empirical check of the asymptotic-optimality results the paper
    cites ([LUND83], [ROME84a/b], [GEM83]).  On 12 instances small
    enough for [Linarr_exact] (8 elements), counts how many runs of
    each method reach the true optimum as the budget grows 250 → 16000
    evaluations. *)

val table_variance : seed:int -> scale:float -> Report.t
(** A8: run-to-run spread behind §4.2.2's remark that anomalies "can be
    explained by the randomness in the algorithms": the leading classes
    re-run 5 times with different streams on
    the 30-instance GOLA suite at 12 s; cells report mean total
    reduction ± a 95% CI halfwidth. *)

val table_wiring : seed:int -> scale:float -> Report.t
(** E5: global wiring after [VECC83] (cited in §2): 150 two-pin nets
    as L-shaped routes on a 10 × 10 grid (5 instances), objective =
    sum of squared channel usages.  Rows: all-horizontal-first baseline, greedy rip-up
    fixpoint, six-temperature annealing ([WHIT84] schedule),
    Metropolis, [g = 1]. *)

val table_floorplan : seed:int -> scale:float -> Report.t
(** E6: slicing floorplans over normalized Polish expressions — the
    Wong–Liu SA application that grew out of the DAC-era annealing
    line this paper examines — on 5 instances of 20 blocks.  Rows: the one-row initial expression,
    next-fit-decreasing-height shelf packing, six-temperature
    annealing, Metropolis, [g = 1]; cells: total bounding area and
    block-area utilization. *)

val table_qap : seed:int -> scale:float -> Report.t
(** E7: quadratic assignment — the archetypal "arbitrary combinatorial
    optimization problem" of §1's framing, on 5 instances with n = 20.  Rows: random start, swap
    descent, descent with restarts, six-temperature annealing,
    Metropolis, [g = 1]. *)
