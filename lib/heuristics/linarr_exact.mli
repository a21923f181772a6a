(** Exact optimal linear arrangement by dynamic programming over
    element subsets.

    The cut after the first k elements of an order depends only on
    which elements they are, so the optimum follows from one pass over
    the [2^n] subsets, each reading its cut from {!Netlist.cut_table}:
    O(2^n n) time and [2^n] two-byte cells.  That reaches the paper's
    15-element suites in milliseconds and 20 elements, the table's
    bound, in a fraction of a second.  It serves as an oracle: the
    convergence experiment (table E4) measures how often each Monte
    Carlo method actually reaches the optimum, and the property tests
    check that no heuristic ever beats it. *)

val optimum : Netlist.t -> int * int array
(** [(density, order)] of an optimal arrangement.  The order is built
    from its end: at each step the remaining element whose removal
    leaves the least optimum for the rest, lowest index on ties.

    @raise Invalid_argument if the netlist has no elements or does not
    fit {!Netlist.fits_cut_table}. *)

val optimal_density : Netlist.t -> int
