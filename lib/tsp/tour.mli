(** Mutable cyclic tours over a TSP instance.

    A tour visits every city exactly once; positions are indices into
    the visiting order and wrap around.  The length is maintained
    incrementally: a 2-opt move (reversing a contiguous segment)
    changes only two edges, so applying it is O(1) for the length and
    O(min(segment, n - segment)) for the reversal, since the tour may
    reverse the segment's complement instead and read itself the other
    way round.  Positions are always those of the visiting order,
    whichever way the tour is stored.

    Cost model: a tour borrows its instance's coordinate arrays
    ({!Tsp_instance.view}) and computes each distance in place, with
    [Tsp_instance.distance]'s formula and bits.  A 2-opt delta reads
    four distances (sixteen coordinate loads and four square roots),
    an Or-opt delta six, and a from-scratch length n. *)

type t

val of_order : Tsp_instance.t -> int array -> t
(** @raise Invalid_argument if the order is not a permutation of the
    instance's cities. *)

val identity : Tsp_instance.t -> t
val random : Rng.t -> Tsp_instance.t -> t
val copy : t -> t
val instance : t -> Tsp_instance.t
val size : t -> int

val city_at : t -> int -> int
(** City at a position (positions taken modulo the size). *)

val order : t -> int array
val length : t -> float
(** Cached tour length. *)

val recompute_length : t -> float
(** From-scratch length (the checker used by the property tests). *)

val two_opt_delta : t -> int -> int -> float
(** [two_opt_delta t i j] for positions [0 <= i < j < size]: length
    change of reversing the segment [i..j], without applying it.
    Reversing the whole tour or a single city is a 0-delta no-op. *)

val two_opt : t -> int -> int -> unit
(** Apply the reversal and update the cached length.  When the last
    call on this tour was [two_opt_delta t i j], its delta is reused
    rather than priced again.  The previous length is remembered (up
    to a small bounded depth) so that [two_opt_undo] can restore it
    exactly.
    @raise Invalid_argument unless [0 <= i < j < size]. *)

val two_opt_undo : t -> int -> int -> unit
(** Exactly undo the most recent [two_opt t i j]: re-reverse the
    segment and restore the cached length bit-for-bit.  Incremental
    delta updates round differently on the way back, so plain
    [two_opt] is only an approximate inverse of itself; this is the
    exact one.  Calls must mirror [two_opt] calls LIFO-fashion with no
    other length-changing operation in between; beyond the bounded
    undo depth it falls back to delta arithmetic.
    @raise Invalid_argument unless [0 <= i < j < size]. *)

val restore : t -> order:int array -> len:float -> unit
(** Overwrite the visiting order and the cached length with a snapshot
    previously taken from this tour via [order]/[length] — the exact
    revert for moves that are not self-inverse, such as {!or_opt}.
    The array is copied in; the caller keeps ownership.  No permutation
    check is performed: the snapshot must come from the tour itself.
    @raise Invalid_argument if the array length does not match. *)

val or_opt_delta : t -> seg:int -> len:int -> dest:int -> float
(** Length change of moving the [len]-city segment starting at
    position [seg] ([len] in 1..3) to sit after position [dest].
    [dest] must not fall inside the segment. *)

val or_opt : t -> seg:int -> len:int -> dest:int -> unit
(** Apply the segment move. *)
