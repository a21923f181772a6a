(** Linear arrangement of circuit elements and its density objective.

    An arrangement places the [n] elements of a netlist at positions
    [0 .. n-1].  A net *crosses* the boundary between positions [p] and
    [p+1] when it has a pin at a position [<= p] and another at a
    position [> p]; the {e cut} at boundary [p] is the number of nets
    crossing it, and the {e density} of the arrangement is the maximum
    cut — the objective minimized by the NOLA/GOLA problems (§4.1).

    The state is mutable and maintained incrementally.  A move changes
    cuts only inside its window, the positions between its two ends,
    and is priced by one of two kernels, picked by the netlist's size:
    - {b table} (at most {!table_max_elements} elements and fewer than
      2^16 nets, the paper's n = 15 instances among them): the cut
      after position [x] depends only on the set of elements at
      positions [<= x].  The state keeps that set per boundary as a bit
      mask, and a move reads each window boundary's new cut from the
      netlist's table of subset cuts ({!Netlist.cut_table}), one lookup
      per boundary: O(|p - q|) for any move, whatever the nets.  The
      first trial on a netlist builds its table, [create] never does.
    - {b span} (larger netlists): the state keeps each net's leftmost
      and rightmost position.  A move prices the new spans of the nets
      it touches, marks their changed endpoints in a difference array
      and sweeps the window once.  A pairwise interchange of positions
      [p] and [q] thus costs O(pins of the incident nets + |p - q|),
      and a relocate O(nets incident to the shifted elements + pins of
      the moved element's nets).
    Either replaces a full O(pins + n) rebuild, and both give the same
    results.  [check] verifies the incremental state against a
    from-scratch recomputation and is used heavily by the property
    tests. *)

type t

val table_max_elements : int
(** 16: the largest netlist, in elements, priced by table lookup.  A
    fixed constant, not a setting. *)

val create : ?order:int array -> Netlist.t -> t
(** [create ?order nl] places element [order.(p)] at position [p]
    (identity order by default).  [order] must be a permutation of
    [0 .. n-1].

    @raise Invalid_argument otherwise. *)

val random : Rng.t -> Netlist.t -> t
(** Uniformly random initial arrangement (paper: "beginning with a
    random linear arrangement"). *)

val copy : t -> t
(** Deep copy of the arrangement, its cuts and its net spans or prefix
    masks; the copy evolves independently.  The trial scratch is not
    copied: a state allocates it on its first trial (a copy or a fresh
    [create] alike), so a snapshot that is never moved holds
    O(n + nets) words, and no per-net array in table mode. *)

val netlist : t -> Netlist.t
val size : t -> int

val element_at : t -> int -> int
(** Element occupying a position. *)

val position_of : t -> int -> int
(** Position of an element. *)

val order : t -> int array
(** Fresh array [o] with [o.(p) = element_at t p]. *)

val cut : t -> int -> int
(** [cut t p] for [0 <= p < size - 1]: nets crossing boundary [p]. *)

val cuts : t -> int array
(** All [size - 1] boundary cuts (fresh array). *)

val density : t -> int
(** Maximum cut; 0 for arrangements of fewer than 2 elements. *)

val sum_of_cuts : t -> int
(** Total wire crossings — a smoother secondary objective, exposed for
    the ablation experiments. *)

(** {1 Moves}

    All moves update cuts, density, and sum-of-cuts incrementally: each
    is its own trial (below) followed by the replay of that trial.
    Undoing the last move only replays (below). *)

val swap_positions : t -> int -> int -> unit
(** Exchange the elements at two positions (the paper's "pairwise
    interchange" perturbation). *)

val swap_elements : t -> int -> int -> unit
(** Exchange two elements by id. *)

val relocate : t -> from_pos:int -> to_pos:int -> unit
(** Remove the element at [from_pos] and reinsert it at [to_pos],
    shifting the elements in between (the "single exchange" move of
    [COHO83a]). *)

val set_order : t -> int array -> unit
(** Replace the whole arrangement.
    @raise Invalid_argument if not a permutation. *)

(** {1 Trial evaluation}

    [swap_delta] / [relocate_delta] price a move {e without} applying
    it.  Only boundaries inside the move's window can change, and one
    sweep over the window yields the sparse cut changes.  In table
    mode the sweep reads each boundary's new cut from the table, keyed
    by the boundary's element set after the move: its current mask
    with the two swapped elements exchanged, or, for a relocate of
    element [e], the next boundary's mask without [e] (forward) or the
    previous one's with [e] (backward).  In span mode the changed
    endpoints of the touched nets' spans go into a difference array
    whose running sum the sweep reads.  The new density is the
    window's max cut after the move when that reaches the current
    density; otherwise the current density stays when the maintained
    cut histogram shows a boundary at it that the move leaves
    untouched; otherwise it is the max of the window and a scan of the
    cuts outside it.  Both return
    [(density_delta, sum_of_cuts_delta)] and leave the arrangement
    untouched, recording the move as {e pending}.

    [swap_positions] / [relocate] replay the pending trial when it is
    their move (a swap in either argument order) and price the move
    first otherwise.  A replay leaves the inverse move's trial pending
    (the same swap, or the relocate from [to_pos] back to [from_pos]),
    so undoing a move costs no pricing.  Any other mutation clears it:
    [set_order], or a move that is not pending, which prices its own
    trial first.  Pricing another move replaces it; [copy] drops it,
    so the copy prices its first move afresh. *)

val swap_delta : t -> int -> int -> int * int
(** [swap_delta t p q] — would-be [(density, sum_of_cuts)] change of
    [swap_positions t p q]; equal to [swap_delta t q p].
    @raise Invalid_argument if a position is out of range. *)

val relocate_delta : t -> from_pos:int -> to_pos:int -> int * int
(** Would-be [(density, sum_of_cuts)] change of [relocate].
    @raise Invalid_argument if a position is out of range. *)

val check : t -> unit
(** Recompute every cut from scratch and compare with the incremental
    state: the net spans in span mode; in table mode the prefix masks,
    and the table's cut of each mask (building the table if no trial
    has).  @raise Failure on any mismatch (indicates a bug). *)

val density_of_order : Netlist.t -> int array -> int
(** One-shot density of a given order, from scratch: one pass over the
    nets' spans and one over the boundaries, without the moves'
    incremental state, so it can re-price what they produced.
    @raise Invalid_argument if the order is not a permutation. *)

(** Tests only: hooks that let a test run both kernels side by side.
    Not for use outside the test suite. *)
module Private : sig
  val create_span : ?order:int array -> Netlist.t -> t
  (** [create] on the span kernel, whatever the netlist's size. *)

  val is_table : t -> bool
  (** Whether the state prices moves by table lookup. *)

  val pending_diff : t -> (int * int) list
  (** The sparse cut changes of the last trial recorded,
      [(boundary, change)] in boundary order, every change nonzero.
      After a replay these are the inverse move's: each change
      negated. *)
end
