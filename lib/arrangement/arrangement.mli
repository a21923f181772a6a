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
      and reads the window once.  A pairwise interchange of positions
      [p] and [q] thus costs O(pins of the incident nets + |p - q|),
      and a relocate O(nets incident to the shifted elements + pins of
      the moved element's nets).
    Either replaces a full O(pins + n) rebuild, and both give the same
    results.  [check] verifies the incremental state against a
    from-scratch recomputation and is used heavily by the property
    tests.

    A move is committed lazily.  [swap_positions] and [relocate] price
    their move and mark it {e applied} without writing the state; the
    state's next use commits it, unless that use is the move's inverse,
    which only clears the mark.  So a move that is tried and undone
    costs one pricing pass, and one that is kept a pricing pass and a
    commit.  [density] and [sum_of_cuts] read an applied move's priced
    values; every other call ([element_at], [position_of], [order],
    [cut], [cuts], [copy], [check], [swap_elements], and the next move
    or trial) commits it first, and [set_order] drops it.  A snapshot
    ([copy]) holds only the order and is rebuilt the same lazy way, at
    its first call that needs more than the order.  Reads may
    therefore write the state: a state must not be read from two
    domains at once, even if neither moves it. *)

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
(** Snapshot of the arrangement, which evolves independently.  It holds
    the order and the density, its count and the sum of cuts: about
    n words.  Its positions, cuts and net spans or prefix masks are
    rebuilt from the order, in one pass, at its first call other than
    [order], [element_at], [density], [sum_of_cuts] and [copy] (so a
    copy of a copy is not rebuilt either).  The trial scratch is not
    copied: a state allocates it on its first trial (a copy or a fresh
    [create] alike). *)

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
    is its own trial (below), replayed at the state's next use.
    Undoing the last move before that use only clears its mark. *)

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
    it: a trial reads the state and writes only its own record.  Only
    boundaries inside the move's window can change, and one sweep over
    the window reads the new cut of each of its boundaries.  In table
    mode the sweep reads each boundary's new cut from the table, keyed
    by the boundary's element set after the move: its current mask
    with the two swapped elements exchanged, or, for a relocate of
    element [e], the next boundary's mask without [e] (forward) or the
    previous one's with [e] (backward), and records it, one entry per
    boundary.  In span mode the endpoints of the touched nets' spans
    that move are recorded in a difference array, which the next trial
    clears where it wrote, and the sweep adds its running sum to each
    boundary's cut without a store.  The state maintains the number
    of boundaries at the density, and the sweep counts, without a
    branch, the window's boundaries at it.  The new density is the
    window's max cut after the move when that reaches the current
    density; otherwise the current density stays when the state's count
    exceeds the window's, so a boundary at it lies outside the window;
    otherwise it is the max of the window and a scan of the cuts
    outside it; that scan also counts the cuts outside the window at
    its max.  The commit, the one writer of the cuts, writes the
    window's new cuts, counts those at the new density, and adds the
    boundaries outside the window at it:
    the old count less the window's when the density holds, none when
    it rises, and the scan's count when it drops.  Both return
    [(density_delta, sum_of_cuts_delta)] and leave the arrangement
    as it stands (committing an applied move first), recording the
    move as {e pending}.

    [swap_positions] / [relocate] take the pending trial when it is
    their move (a swap in either argument order) and price the move
    first otherwise, then mark it applied.  The commit that follows,
    at the state's next use, replays the trial: it writes the move and
    leaves the inverse move's trial pending (the same swap, or the
    relocate from [to_pos] back to [from_pos]), so undoing a committed
    move costs no pricing either.  Undoing an applied move, with the
    same swap or the relocate back, writes nothing: it clears the mark
    and leaves the move's own trial pending.  [set_order] clears the
    pending trial, and a move that is not pending prices its own.
    Pricing another move replaces it; [copy] drops it, so the copy
    prices its first move afresh. *)

val swap_delta : t -> int -> int -> int * int
(** [swap_delta t p q] — would-be [(density, sum_of_cuts)] change of
    [swap_positions t p q]; equal to [swap_delta t q p].
    @raise Invalid_argument if a position is out of range. *)

val swap_density_delta : t -> int -> int -> int
(** [swap_density_delta t p q = fst (swap_delta t p q)], without
    building the pair: the density change alone, for callers on a hot
    path.  @raise Invalid_argument if a position is out of range. *)

val relocate_delta : t -> from_pos:int -> to_pos:int -> int * int
(** Would-be [(density, sum_of_cuts)] change of [relocate].
    @raise Invalid_argument if a position is out of range. *)

val check : t -> unit
(** Recompute every cut from scratch and compare with the incremental
    state: the cuts, their sum, the density and the number of
    boundaries at it; in span mode the net spans, and the difference
    array and sum change against the pending trial's new spans; in
    table mode the
    prefix masks, and the table's cut of each mask (building the table
    if no trial has).  @raise Failure on any mismatch (indicates a
    bug). *)

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
  (** The cut changes of the last trial recorded, [(boundary, change)]
      in boundary order, read off its window's new cuts and kept only
      where the change is nonzero.
      Commits an applied move first, so after a move these are the
      inverse move's: each change negated. *)

  val arrays : t -> int array list
  (** The state's arrays themselves, not copies, read without
      committing an applied move or rebuilding a snapshot: the order,
      positions, cuts, net spans, prefix masks and the trial's records
      (the span kernel's difference array, the table kernel's new cuts,
      the new spans).  A test compares their contents around a call to
      see that it wrote none; a snapshot's are empty but the order's
      until its first use. *)
end
