(** k-way netlist partitioning by recursive bisection.

    The standard industrial recipe on top of a 2-way refiner: split the
    element set in half with FM, then recurse into each side over the
    {e induced} sub-netlists until [k] parts exist.  [k] must be a
    power of two (each level doubles the part count).

    The cost reported is the number of nets spanning more than one
    part — the natural k-way generalization of the 2-way cut. *)

type result = {
  part_of : int array;  (** element → part index in [0, k) *)
  k : int;
  spanning_nets : int;  (** nets touching ≥ 2 parts *)
}

val partition : Rng.t -> Netlist.t -> k:int -> result
(** [partition rng nl ~k] recursively bisects with [Fm.refine] from
    random balanced starts.

    @raise Invalid_argument if [k] is not a positive power of two or
    exceeds the element count (for [n > 0]). *)

val spanning_nets : Netlist.t -> int array -> int
(** Count the nets whose pins touch at least two distinct parts of the
    given assignment (the independent checker used by the tests). *)

val part_sizes : result -> int array
(** Elements per part. *)
