(** Deterministic pseudo-random number generation.

    All stochastic code in this repository draws from an explicit
    [Rng.t] value; there is no hidden global state.  The generator is a
    PCG32 stream (Melissa O'Neill's [pcg32] with a 64-bit LCG state and
    an odd stream increment), seeded through SplitMix64 so that small,
    human-chosen integer seeds expand to well-mixed initial states.

    Two generators created with the same seed produce identical
    sequences on every platform: experiment tables and tests rely on
    this. *)

type t
(** Mutable generator state: PCG32's 64-bit LCG state and odd stream
    increment.  Drawing from it allocates nothing. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed].
    Any int is accepted; equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from
    [t], advancing [t].  Used to give each instance of an experiment
    suite its own stream so runs do not perturb one another. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy and the original
    then produce the same future sequence. *)

val to_state : t -> string
(** Exact serialized form of the generator's current state
    (["pcg32:<state>:<inc>"], two 16-digit lowercase hex words).
    Written into checkpoints so an interrupted run can resume on the
    bit-identical stream. *)

val of_state : string -> (t, string) result
(** Inverse of {!to_state}: [of_state (to_state t)] produces a
    generator emitting exactly the sequence [t] would.  Truncated,
    padded, or otherwise malformed input — including an even stream
    increment, which PCG32 forbids — is rejected with a descriptive
    [Error]; no garbage stream is ever constructed. *)

val bits32 : t -> int32
(** Next raw 32 bits of the stream. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); requires [bound > 0].
    Uses rejection sampling, so the distribution is exactly uniform.

    @raise Invalid_argument if [bound <= 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform on [lo, hi] inclusive.

    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound) with 32 bits of
    resolution; requires [bound > 0.]. *)

val unit_float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [min 1. (max 0. p)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val exponential : t -> lambda:float -> float
(** Exponential deviate with rate [lambda > 0.]. *)

val pair_distinct : t -> int -> int * int
(** [pair_distinct t n] is a uniformly random ordered pair [(a, b)]
    with [0 <= a, b < n] and [a <> b]; requires [n >= 2]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.

    @raise Invalid_argument on an empty array. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] draws [k] distinct values from
    [0..n-1], in random order.  Requires [0 <= k <= n].

    O(k) time and memory, whatever [n]: one {!sample_into} through a
    fresh [sampler ~k ~n].

    @raise Invalid_argument unless [0 <= k <= n]. *)

type sampler
(** Scratch for drawing up to a fixed [k] distinct values of [0..n-1],
    again and again: a caller drawing many small samples (a netlist's
    nets) allocates it once. *)

val sampler : k:int -> n:int -> sampler
(** [sampler ~k ~n] serves draws of at most [k] values from [0..n-1].
    It holds O(k) words, whatever [n]: a partial Fisher–Yates shuffle
    runs over a virtual index array and stores only the slots its swaps
    displaced, in a hash table of at least [2 k] cells, or in an
    [n]-word array when that is no larger.

    @raise Invalid_argument unless [0 <= k <= n]. *)

val sample_into : t -> sampler -> k:int -> int array -> int -> unit
(** [sample_into t s ~k out off] draws [k] distinct values from
    [0..n-1] ([n] that of [s]) into [out.(off) .. out.(off + k - 1)], in
    random order, allocating nothing.  The same draws as
    {!sample_without_replacement} with the same [k] and [n] give the
    same values.  A draw takes O(k) time: it empties only the cells of
    [s] it wrote, so [s] is ready for the next one.

    @raise Invalid_argument if [k] is negative or above the [k] of [s],
    or the slice does not fit in [out]. *)

val categorical : t -> float array -> int
(** [categorical t weights] samples an index with probability
    proportional to [weights.(i)]; weights must be finite and
    non-negative, with a positive sum no larger than [max_float].

    @raise Invalid_argument otherwise: a negative or NaN weight, an
    infinite weight, a total that overflows to infinity, or a zero
    total. *)
