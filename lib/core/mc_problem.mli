(** The interface an optimization problem presents to the engines, the
    statistics every engine returns, and the [Contract] sanitizer that
    checks the problem/engine contract at runtime.

    States are mutable; a move is applied in place and must be
    revertible so that a rejected perturbation costs no allocation.
    [moves] enumerates the whole perturbation neighborhood — Figure 2's
    descent-to-local-optimum and the rejectionless engine need it;
    Figure 1 only ever calls [random_move]. *)

module type S = sig
  type state
  type move

  val cost : state -> float
  (** Objective value [h] of the current state (to minimize). *)

  val random_move : Rng.t -> state -> move
  (** A random perturbation (e.g. pairwise interchange).  Must not
      change the state. *)

  val apply : state -> move -> unit

  val revert : state -> move -> unit
  (** [revert] undoes the matching [apply]; engines always pair them
      LIFO, and the cost must come back bit-for-bit. *)

  val copy : state -> state
  (** Independent snapshot, used to record the best solution found.
      The engines take one when the walk leaves a best it has not
      beaten (and when a run ends or checkpoints on its best), not on
      every new best. *)

  val moves : state -> move Seq.t
  (** Systematic enumeration of the neighborhood of the current state.
      The sequence may be lazy but must be finite, and enumerating it
      must not change the state. *)
end

val pairs : int -> (int * int) Seq.t
(** [pairs n]: every [(p, q)] with [0 <= p < q < n], in lexicographic
    order, in constant work per pair — the neighborhood of the
    pairwise interchanges ({!S.moves} of the swap adapters). *)

exception Invalid_cost of string
(** Raised by hardened engines when a problem's cost function returns a
    non-finite value (NaN or an infinity); the message pins down the
    value and the budget tick.  A NaN cost would silently poison every
    later Metropolis comparison, so the walk stops instead. *)

type 'state codec = {
  encode : 'state -> Obs.Json.t;
  decode : Obs.Json.t -> ('state, string) result;
}
(** Serialization pair for checkpointing a problem state.  A
    first-class record rather than part of {!S}: only domains that
    support resume need one, and [decode] must reject structurally
    invalid input with a message rather than produce a broken state. *)

type ('state, 'move) delta_ops = {
  propose : Rng.t -> 'state -> 'move;
      (** Pick a random perturbation without changing the state — the
          fast-path counterpart of {!S.random_move}, usually the same
          function.  An adapter whose delta and recompute paths
          propose from identical RNG draws makes the two paths visit
          identical accept/reject decisions. *)
  delta : 'state -> 'move -> float;
      (** Cost change the move would cause, {e without} applying it
          ([cost(after) - cost(before)], within float rounding).  This
          is the whole point of the record: a rejected proposal costs
          no state mutation at all. *)
  commit : 'state -> 'move -> unit;
      (** Apply an accepted move (same effect as {!S.apply}). *)
  abandon : 'state -> 'move -> unit;
      (** Discard a rejected move.  Must leave the state untouched;
          exists so adapters that attach scratch data to proposals can
          release it. *)
  recost_every : int;
      (** Engines resynchronize their accumulated current cost against
          a full {!S.cost} recompute every [recost_every] budget ticks,
          bounding compensated float drift.  Always positive. *)
}
(** Optional incremental-evaluation capability — the same
    first-class-record pattern as {!codec}.  Only the moves a program
    runs provide one: the linarr swap ([Arrangement.swap_delta]), TSP
    2-opt ([Tour.two_opt_delta]) and QAP ([Qap.swap_delta]).
    Each engine runs a single step loop over an evaluator built from
    this record (price = current cost + [delta], keep = [commit], drop
    = [abandon]) when given, or from {!S} itself otherwise (price =
    [apply] then [cost], drop = [revert]), and then tracks the current
    cost by accumulated deltas.  The evaluator built from {!S} makes the
    calls the engines made before this record existed, so runs without
    it are byte-identical to previous releases (same events, same
    checkpoints, same statistics). *)

val delta_ops :
  ?recost_every:int ->
  propose:(Rng.t -> 'state -> 'move) ->
  delta:('state -> 'move -> float) ->
  commit:('state -> 'move -> unit) ->
  abandon:('state -> 'move -> unit) ->
  unit ->
  ('state, 'move) delta_ops
(** Smart constructor; [recost_every] defaults to [10_000].
    @raise Invalid_argument if [recost_every <= 0]. *)

(** Outcome counters common to all engines. *)
type stats = {
  evaluations : int;  (** perturbations proposed (budget ticks) *)
  improving : int;  (** strictly downhill moves taken *)
  lateral_accepted : int;  (** zero-delta moves taken *)
  uphill_accepted : int;
  rejected : int;
  temperatures_visited : int;
  descents : int;  (** Figure 2 only: local optima reached *)
}

type 'state run = {
  best : 'state;  (** snapshot of the best solution encountered *)
  best_cost : float;
  final_cost : float;  (** cost of the state the walk ended on *)
  stats : stats;
}

type 'state aborted = { reason : exn; partial : 'state run }
(** A walk the problem broke mid-run: [reason] is {!Invalid_cost} for a
    non-finite cost, or what a problem operation raised; [partial] is
    the best-so-far snapshot and the counters at that point.  The
    walk's state is restored first (a half-evaluated move is reverted).
    A [commit] that raises halfway through a move that beats the best
    leaves the partial at the last snapshot taken, an earlier best, with
    that snapshot's own cost. *)

val empty_stats : stats

val accepted : stats -> int
(** Moves taken, of any kind. *)

val pp_stats : Format.formatter -> stats -> unit
(** One aligned line per counter, plus the derived acceptance ratio. *)

val stats_to_json : stats -> Obs.Json.t

val stats_of_events : Obs.Event.t list -> stats
(** Reconstruct the counters from an event stream; see the
    implementation note for the per-engine caveats (the rejectionless
    engine emits no [Rejected] events, so that field reconstructs
    as 0). *)

exception Contract_violation of string
(** Raised by {!Contract} wrappers when the wrapped problem breaks an
    invariant. *)

(** [Contract (P)] is [P] with every call checked at runtime: [revert]
    must exactly undo the matching [apply] (same state and move, LIFO
    order, cost restored bit-for-bit), [copy] must preserve the cost,
    and [moves]/[random_move] must be finite/side-effect-free.  The
    wrapped module exposes [P]'s own state and move types, so it drops
    into {!Engine.run} unchanged — the test suite runs every
    problem domain through its engines under this wrapper.

    Cost checks recompute [P.cost] aggressively: this is a sanitizer
    for tests, not a production wrapper. *)
module Contract (P : S) : sig
  include S with type state = P.state and type move = P.move

  val checks_performed : unit -> int
  (** Number of contract checks executed so far (across all states of
      this instantiation); tests assert it advanced. *)

  val default_delta_tol : float
  (** Relative tolerance {!wrap_delta} uses when none is given
      ([1e-9]). *)

  val wrap_delta :
    ?tol:float -> (state, move) delta_ops -> (state, move) delta_ops
  (** Sanitize a {!delta_ops} record against [P] itself: every [delta]
      call is probed with an actual apply/cost/revert round trip (which
      must restore the cost bit-for-bit) and must agree with
      [cost(after) - cost(before)] within relative tolerance [tol]
      (default {!default_delta_tol}); [propose] and [abandon] must
      leave the cost untouched bit-for-bit; [commit]'s observed cost
      change is re-checked against the most recent [delta] for the same
      state and move.  Violations raise {!Contract_violation}.
      @raise Invalid_argument on a negative [tol]. *)
end

(** The faults {!Chaos} can plan. *)
type fault =
  | Nan_cost  (** [cost] returns [nan] *)
  | Inf_cost  (** [cost] returns [infinity] *)
  | Raise_cost  (** [cost] raises [Chaos(P).Fault] *)
  | Raise_apply  (** [apply] raises [Chaos(P).Fault] before mutating *)
  | Raise_revert  (** [revert] raises [Chaos(P).Fault] before restoring *)
  | Slow_move of float
      (** [random_move] busy-waits this many CPU seconds first *)

val fault_names : (string * fault) list
(** The one name table for faults, shared by [sa_lab supervise
    --chaos] and the daemon's job specs: ["nan"], ["inf"],
    ["raise-cost"], ["raise-apply"], ["raise-revert"], and ["slow"]
    ([Slow_move 0.05]). *)

val fault_name : fault -> string
(** The table's name for a fault ([Slow_move] of any length is
    ["slow"]). *)

(** [Chaos (P)] is the fault-injection counterpart of {!Contract}: it
    presents [P]'s own state and move types so it drops into
    {!Engine.run}, but makes planned calls misbehave — returning NaN/infinite
    costs, raising from [cost]/[apply]/[revert], or stalling
    [random_move].  Used by the chaos test suite to prove the engines
    degrade gracefully (precise error, state restored, best-so-far
    preserved).  Counters and plans are per-instantiation globals; call
    [reset] between tests. *)
module Chaos (P : S) : sig
  include S with type state = P.state and type move = P.move

  type nonrec fault = fault =
    | Nan_cost
    | Inf_cost
    | Raise_cost
    | Raise_apply
    | Raise_revert
    | Slow_move of float

  exception Fault of string

  val plan : ?after:int -> ?times:int -> fault -> unit
  (** Arm a fault: dormant for the first [after] (default 0) calls of
      the targeted operation, then fires on the next [times] (default
      1) calls.

      @raise Invalid_argument on negative [after] or [times < 1]. *)

  val reset : unit -> unit
  (** Clear all plans and counters. *)

  val injected : unit -> int
  (** Faults actually fired so far. *)
end
