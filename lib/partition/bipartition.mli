(** Two-way partition of a netlist's elements with an incrementally
    maintained cut.

    A net is {e cut} when it has pins on both sides.  This matches the
    circuit-partition objective of [KIRK83] (the problem behind the
    paper's extension experiment E2) and generalizes to multi-pin
    nets.  Balance is tracked but not enforced: the SA adapter keeps it
    invariant by moving elements in opposite pairs, while [toggle]
    exists for single-element heuristics. *)

type t

val create : ?sides:bool array -> Netlist.t -> t
(** [sides.(e)] puts element [e] on side B when true.  Default: the
    first ⌈n/2⌉ elements on side A.
    @raise Invalid_argument if [sides] has the wrong length. *)

val random_balanced : Rng.t -> Netlist.t -> t
(** Uniformly random split with ⌊n/2⌋ elements on side B. *)

val copy : t -> t
val netlist : t -> Netlist.t

val side : t -> int -> bool
(** [true] = side B. *)

val cut : t -> int
(** Number of nets with pins on both sides. *)

val net_pins_b : t -> int -> int
(** [net_pins_b t j]: how many of net [j]'s pins sit on side B — the
    quantity FM gain computation needs. *)

val size_b : t -> int
(** Elements on side B. *)

val imbalance : t -> int
(** [abs (|A| - |B|)]. *)

val toggle : t -> int -> unit
(** Move one element to the other side (changes balance by 2). *)

val swap : t -> int -> int -> unit
(** Exchange the sides of two elements; a no-op when they already share
    a side.  Preserves balance when they differ. *)

val check : t -> unit
(** Compare the incremental cut against a recomputation.
    @raise Failure on mismatch. *)
