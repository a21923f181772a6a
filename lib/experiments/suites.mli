(** Seeded benchmark suites and budget presets.

    The paper's test sets are "30 random instances, 15 elements, 150
    nets" (§4.2.1, §4.3.1), each with one fixed random initial
    arrangement shared by every method.  Suites here are deterministic
    functions of a seed, so every table in [bench_output.txt] is
    reproducible bit for bit. *)

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

val total_reduction :
  ?start:(linarr_suite -> int -> Arrangement.t) ->
  Rng.t ->
  linarr_suite ->
  (Rng.t -> Arrangement.t -> Arrangement.t Mc_problem.run) ->
  int
(** [total_reduction rng suite run] is the measure of every linear
    arrangement table: the sum over the suite's instances, in order, of
    the starting density minus the density of the best arrangement
    [run] finds.  Each instance starts at [start suite i] (default
    {!initial_arrangement}) and runs on its own [Rng.split rng]. *)

val total_initial_density : linarr_suite -> int
val total_goto_density : linarr_suite -> int

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
