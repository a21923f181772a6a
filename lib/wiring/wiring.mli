(** Global wiring by simulated annealing, after Vecchi–Kirkpatrick
    ([VECC83], cited in §2).

    Two-pin nets connect cells of a [width × height] routing grid.
    Each net is routed as one of its two L-shapes — horizontal-first
    ([`HV]) or vertical-first ([`VH]) — and the objective is the sum of
    {e squared} edge usages, [VECC83]'s congestion measure: squaring
    makes overloaded channels expensive, so minimizing it spreads the
    wiring.  Flipping one net's orientation updates the cost
    incrementally along its two L-paths.

    Degenerate nets (aligned endpoints) have a single straight route;
    flipping them is a no-op. *)

type t

type net_ends = { x1 : int; y1 : int; x2 : int; y2 : int }

val create : width:int -> height:int -> net_ends array -> t
(** All nets initially routed horizontal-first.
    @raise Invalid_argument if a coordinate is outside the grid or a
    net's endpoints coincide. *)

val random_instance : Rng.t -> width:int -> height:int -> nets:int -> net_ends array
(** Nets with uniformly random distinct endpoints. *)

val width : t -> int
val height : t -> int
val n_nets : t -> int

val orientation : t -> int -> [ `HV | `VH ]
val flip : t -> int -> unit
(** Reroute net along its other L-shape. *)

val cost : t -> int
(** Sum of squared edge usages. *)

val max_usage : t -> int
(** Heaviest edge load (the congestion hot spot). *)

val overflow : t -> capacity:int -> int
(** Total usage above [capacity], summed over edges. *)

val h_usage : t -> x:int -> y:int -> int
(** Usage of the horizontal edge from [(x, y)] to [(x+1, y)]. *)

val v_usage : t -> x:int -> y:int -> int
(** Usage of the vertical edge from [(x, y)] to [(x, y+1)]. *)

val copy : t -> t

val check : t -> unit
(** Recompute usages and cost from scratch; @raise Failure on drift. *)

val greedy_pass : t -> int
(** One rip-up-and-reroute sweep: every net, in index order, is set to
    its locally cheaper orientation.  Returns the number of flips. *)

val greedy_fixpoint : t -> int
(** Sweeps until no flip helps, or for at most 50 passes.  Returns the
    passes used. *)

(** [Mc_problem.S] adapter: a move names the net whose orientation
    flips; only non-degenerate nets are proposed. *)
module Problem : sig
  include Mc_problem.S with type state = t and type move = int
end
