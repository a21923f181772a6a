(** Seeded benchmark suites, the one instance loop every table runs,
    and budget presets.

    The paper's test sets are "30 random instances, 15 elements, 150
    nets" (§4.2.1, §4.3.1), each with one fixed random initial
    arrangement shared by every method.  Suites here are deterministic
    functions of a seed, so every table in [bench_output.txt] is
    reproducible bit for bit.

    Every linear arrangement number the tables report, the §4.2.1 grid
    search's scores included, is a total over a suite at an equal
    budget: {!runs} runs one method on every instance, each on its own
    stream, and {!total_reduction} sums the reductions.  The streams
    are split up front ({!streams}), one per instance in instance
    order; a run draws only from its own stream, so the totals do not
    depend on the order the instances run in.  Every run, in the
    tables and in [sa_lab]'s problem subcommands, is one call of
    {!Engine.run}. *)

type linarr_suite = {
  netlists : Netlist.t array;
  initial_orders : int array array;  (** the shared random starts *)
  goto_orders : int array array Lazy.t;  (** [GOTO77] orders, cached *)
}

val gola : unit -> linarr_suite
(** Seed 1985: 30 instances, 15 elements, 150 two-pin nets. *)

val nola : unit -> linarr_suite
(** Seed 2385: 30 instances, 15 elements, 150 nets of 2–5 pins. *)

val initial_arrangement : linarr_suite -> int -> Arrangement.t
(** Fresh arrangement for instance [i] at its shared random start. *)

val goto_arrangement : linarr_suite -> int -> Arrangement.t
(** Fresh arrangement for instance [i] at the [GOTO77] start. *)

val streams : Rng.t -> linarr_suite -> Rng.t array
(** [streams rng suite] is one [Rng.split rng] per instance, taken in
    instance order. *)

val runs :
  ?start:(linarr_suite -> int -> Arrangement.t) ->
  Rng.t array ->
  linarr_suite ->
  (Rng.t ->
  Arrangement.t ->
  (Arrangement.t Mc_problem.run, Arrangement.t Mc_problem.aborted) result) ->
  (int * Arrangement.t Mc_problem.run) array
(** [runs streams suite run] runs [run streams.(i)] on instance [i]
    from [start suite i] (default {!initial_arrangement}), in index
    order, and returns each instance's reduction (its starting density
    minus the density of the best arrangement [run] found) with the
    run itself, so a table can read extra columns from the runs'
    statistics.  [streams] has one stream per instance: {!streams}, or
    a table's own seeding.  A run that aborts raises its reason: a
    table has no use for a partial. *)

val total : (int * _) array -> int
(** Sum of the reductions {!runs} returned. *)

val total_reduction :
  ?start:(linarr_suite -> int -> Arrangement.t) ->
  Rng.t ->
  linarr_suite ->
  (Rng.t ->
  Arrangement.t ->
  (Arrangement.t Mc_problem.run, Arrangement.t Mc_problem.aborted) result) ->
  int
(** [total_reduction rng suite run] = [total (runs (streams rng suite)
    suite run)]: the measure of every linear arrangement table. *)

val total_initial_density : linarr_suite -> int
val total_goto_density : linarr_suite -> int

val goto_reduction : linarr_suite -> int
(** The Goto row: total density reduction of the [GOTO77] arrangements
    from the shared random starts. *)

(** {1 Budget presets}

    The VAX 11/780 CPU-second budgets of the paper map to evaluation
    counts at [evals_per_second] proposed perturbations per simulated
    second (see DESIGN.md §3); only the 6 : 9 : 12 : 180 ratios matter
    for the comparisons. *)

val evals_per_second : int
val seconds : float -> Budget.t
(** [seconds s] = [Evaluations (s * evals_per_second)], rounded. *)

val paper_times : float list
(** [6.; 9.; 12.] — the columns of Tables 4.1 and 4.2(a,c,d). *)
