(** Fiduccia–Mattheyses bipartition refinement.

    Unlike Kernighan–Lin, FM moves {e single} elements, handles
    multi-pin nets natively (a net stops being cut only when its last
    straddling pin comes home), and uses a bucket structure indexed by
    gain so each pick is O(1).  A pass moves every element at most
    once, tracking the cut after every move, and commits the prefix
    with the lowest cut that respects the balance bound; passes repeat
    until one fails to improve.

    Balance: a committed prefix keeps both side sizes within 1 of each
    other — as tight as parity allows. *)

val refine : Bipartition.t -> int
(** Refine in place; returns the number of improving passes.
    @raise Invalid_argument if the partition's initial imbalance
    already exceeds 1. *)

val run : Rng.t -> Netlist.t -> Bipartition.t
(** Random balanced start followed by [refine]. *)
