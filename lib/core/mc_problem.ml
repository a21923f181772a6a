(** The interface an optimization problem presents to the engines.

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
  (** A random perturbation (e.g. pairwise interchange). *)

  val apply : state -> move -> unit
  val revert : state -> move -> unit
  (** [revert] undoes the matching [apply]; engines always pair them. *)

  val copy : state -> state
  (** Independent snapshot, used to record the best solution found. *)

  val moves : state -> move Seq.t
  (** Systematic enumeration of the neighborhood of the current state.
      The sequence may be lazy but must be finite. *)
end

(* Lexicographic pairs p < q, each from the one before. *)
let pairs n =
  Seq.unfold
    (fun (p, q) ->
      if p >= n - 1 then None
      else
        let next = if q + 1 < n then (p, q + 1) else (p + 1, p + 2) in
        Some ((p, q), next))
    (0, 1)

exception Invalid_cost of string

(* Serialization pair for checkpointing a problem state.  A first-class
   record rather than an extension of [S]: only domains that support
   resume need one, and existing adapters stay untouched. *)
type 'state codec = {
  encode : 'state -> Obs.Json.t;
  decode : Obs.Json.t -> ('state, string) result;
}

(* Incremental-evaluation capability, same first-class-record pattern
   as [codec]: only domains with a cheap delta formula provide one, and
   every adapter works without it (the engines then price by recompute).
   [delta] prices a move *without* applying it, so a rejected proposal
   costs no state mutation at all — for a 2-opt move that turns an
   O(segment) apply/revert pair into an O(1) lookup.  The engines track
   the current cost by accumulated deltas and resynchronize it against
   a full [cost] recompute every [recost_every] budget ticks, bounding
   compensated float drift. *)
type ('state, 'move) delta_ops = {
  propose : Rng.t -> 'state -> 'move;
  delta : 'state -> 'move -> float;
  commit : 'state -> 'move -> unit;
  abandon : 'state -> 'move -> unit;
  recost_every : int;
}

let delta_ops ?(recost_every = 10_000) ~propose ~delta ~commit ~abandon () =
  if recost_every <= 0 then invalid_arg "Mc_problem.delta_ops: recost_every <= 0";
  { propose; delta; commit; abandon; recost_every }

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

let empty_stats =
  {
    evaluations = 0;
    improving = 0;
    lateral_accepted = 0;
    uphill_accepted = 0;
    rejected = 0;
    temperatures_visited = 1;
    descents = 0;
  }

let accepted s = s.improving + s.lateral_accepted + s.uphill_accepted

(** One aligned line per counter, plus the derived acceptance ratio. *)
let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>evaluations          %12d@,\
     improving            %12d@,\
     lateral accepted     %12d@,\
     uphill accepted      %12d@,\
     rejected             %12d@,\
     temperatures visited %12d@,\
     descents             %12d@,\
     acceptance ratio     %12s@]"
    s.evaluations s.improving s.lateral_accepted s.uphill_accepted s.rejected
    s.temperatures_visited s.descents
    (if s.evaluations = 0 then "-"
     else Printf.sprintf "%.3f" (float_of_int (accepted s) /. float_of_int s.evaluations))

let stats_to_json s =
  Obs.Json.Obj
    [
      ("evaluations", Obs.Json.Int s.evaluations);
      ("improving", Obs.Json.Int s.improving);
      ("lateral_accepted", Obs.Json.Int s.lateral_accepted);
      ("uphill_accepted", Obs.Json.Int s.uphill_accepted);
      ("rejected", Obs.Json.Int s.rejected);
      ("temperatures_visited", Obs.Json.Int s.temperatures_visited);
      ("descents", Obs.Json.Int s.descents);
    ]

(** Reconstruct the counters from an event stream: [evaluations] counts
    [Proposed], the acceptance counters count [Accepted] by kind,
    [rejected] counts [Rejected], [descents] counts [Descent_done], and
    [temperatures_visited] is the highest temperature index any
    [Temp_advance] announced (restart-safe).  For Figure 1 and Figure 2
    this reproduces the returned stats exactly; the rejectionless
    engine emits no [Rejected] events (its [rejected] counter is scan
    overhead, not rejections), so that field reconstructs as 0 there. *)
exception Contract_violation of string

(* The dynamic half of the move contract (the static half is enforced
   by sa_lint).  [Contract (P)] presents [P]'s own state and move
   types, so [Engine.run] accepts the wrapped module unchanged;
   every call is intercepted and checked:

   - [revert] must exactly undo the matching [apply]: same state, the
     same move value, LIFO order, and the cost restored bit-for-bit
     ([Int64.bits_of_float] equality — a revert that is "close" has
     already corrupted an incremental cost cache);
   - [copy] must preserve cost bit-for-bit;
   - [moves] must be finite and enumerating it must not change the
     state's cost;
   - [random_move] must not change the state's cost.

   Accepted moves are never reverted, so their records are garbage; the
   tracking stack keeps only the most recent [max_tracked] entries
   (engines pair apply/revert at depth 1, so matching always happens at
   the top).  The wrapper recomputes costs aggressively — it is a test
   harness, not a production path. *)
module Contract (P : S) = struct
  type state = P.state
  type move = P.move

  let max_tracked = 64
  let moves_cap = 1_000_000

  (* (state, move, cost bits before apply), most recent first. *)
  let tracked : (state * move * int64) list ref = ref []
  let checks = ref 0
  let checks_performed () = !checks

  let bits x = Int64.bits_of_float x
  let violation fmt = Printf.ksprintf (fun m -> raise (Contract_violation m)) fmt

  let check cond fmt =
    incr checks;
    if cond then Printf.ksprintf ignore fmt else violation fmt

  let cost = P.cost

  let random_move rng s =
    let before = bits (P.cost s) in
    let m = P.random_move rng s in
    check
      (Int64.equal (bits (P.cost s)) before)
      "random_move changed the state's cost (it must only pick a move)";
    m

  let apply s m =
    let before = P.cost s in
    P.apply s m;
    incr checks;
    let keep =
      if List.length !tracked >= max_tracked then
        List.filteri (fun i _ -> i < max_tracked - 1) !tracked
      else !tracked
    in
    tracked := (s, m, bits before) :: keep

  let revert s m =
    match !tracked with
    | (s', m', before) :: rest when s' == s && m' == m ->
        P.revert s m;
        let after = bits (P.cost s) in
        check (Int64.equal after before)
          "revert did not restore the cost bit-for-bit (%.17g before apply, \
           %.17g after revert)"
          (Int64.float_of_bits before) (Int64.float_of_bits after);
        tracked := rest
    | _ ->
        violation
          "revert without a matching apply on top of the stack (engines must \
           pair apply/revert LIFO on the same state and move)"

  let copy s =
    let c = P.copy s in
    check
      (Int64.equal (bits (P.cost c)) (bits (P.cost s)))
      "copy does not preserve the cost bit-for-bit";
    c

  let moves s =
    let before = bits (P.cost s) in
    let rec force n acc seq =
      if n > moves_cap then
        violation "moves enumerated more than %d elements (must be finite)"
          moves_cap
      else
        match seq () with
        | Seq.Nil -> List.rev acc
        | Seq.Cons (m, rest) -> force (n + 1) (m :: acc) rest
    in
    let ms = force 0 [] (P.moves s) in
    check
      (Int64.equal (bits (P.cost s)) before)
      "enumerating moves changed the state's cost (it must be side-effect-free)";
    List.to_seq ms

  (* Sanitize a [delta_ops] record against [P] itself: every [delta] is
     probed with an actual apply/cost/revert round trip (restored
     bit-for-bit, like [revert] above) and must agree with
     cost(after) - cost(before) within [tol] relative tolerance;
     [propose] and [abandon] must leave the cost untouched; [commit]'s
     observed cost change is re-checked against the most recent [delta]
     for the same state and move.  As with the rest of [Contract], this
     recomputes costs aggressively — a test harness, not a production
     wrapper. *)
  let default_delta_tol = 1e-9

  (* Most recent delta probe: (state, move, reported delta). *)
  let pending_delta : (state * move * float) option ref = ref None

  let wrap_delta ?(tol = default_delta_tol) (d : (state, move) delta_ops) =
    if tol < 0. || Float.is_nan tol then
      invalid_arg "Contract.wrap_delta: negative tolerance";
    let propose rng s =
      let before = bits (P.cost s) in
      let m = d.propose rng s in
      check
        (Int64.equal (bits (P.cost s)) before)
        "delta_ops.propose changed the state's cost (it must only pick a move)";
      m
    in
    let delta s m =
      let before = P.cost s in
      let v = d.delta s m in
      P.apply s m;
      let after = P.cost s in
      P.revert s m;
      check
        (Int64.equal (bits (P.cost s)) (bits before))
        "delta probe: apply/revert did not restore the cost bit-for-bit";
      let err = Float.abs (v -. (after -. before)) in
      let scale = Float.max 1. (Float.max (Float.abs before) (Float.abs after)) in
      check
        (err <= tol *. scale)
        "delta_ops.delta = %.17g but cost(after) - cost(before) = %.17g (error \
         %.3g exceeds tolerance %.3g)"
        v (after -. before) err (tol *. scale);
      pending_delta := Some (s, m, v);
      v
    in
    let commit s m =
      let before = P.cost s in
      d.commit s m;
      let after = P.cost s in
      check
        (Float.is_finite after || not (Float.is_finite before))
        "delta_ops.commit produced a non-finite cost";
      (match !pending_delta with
      | Some (s', m', v) when s' == s && m' == m ->
          let err = Float.abs (v -. (after -. before)) in
          let scale =
            Float.max 1. (Float.max (Float.abs before) (Float.abs after))
          in
          check
            (err <= tol *. scale)
            "delta_ops.commit changed the cost by %.17g but delta reported \
             %.17g (error %.3g exceeds tolerance %.3g)"
            (after -. before) v err (tol *. scale)
      | Some _ | None -> ());
      pending_delta := None
    in
    let abandon s m =
      let before = bits (P.cost s) in
      d.abandon s m;
      check
        (Int64.equal (bits (P.cost s)) before)
        "delta_ops.abandon changed the state's cost (it must leave the state \
         untouched)"
    in
    { d with propose; delta; commit; abandon }
end

type fault =
  | Nan_cost
  | Inf_cost
  | Raise_cost
  | Raise_apply
  | Raise_revert
  | Slow_move of float

let fault_names =
  [
    ("nan", Nan_cost);
    ("inf", Inf_cost);
    ("raise-cost", Raise_cost);
    ("raise-apply", Raise_apply);
    ("raise-revert", Raise_revert);
    ("slow", Slow_move 0.05);
  ]

let fault_name = function
  | Slow_move _ -> "slow"
  | f -> fst (List.find (fun (_, g) -> g = f) fault_names)

(* Fault-injection counterpart of [Contract]: instead of checking that
   [P] behaves, [Chaos (P)] makes it misbehave on schedule, so the
   engine-hardening paths (non-finite cost rejection, exception-safe
   accept/revert, best-so-far preservation) can be exercised from
   tests.  Faults are planned per primitive-operation class; a plan
   [plan ~after ~times fault] stays dormant for the first [after] calls
   of the targeted operation, then fires on the next [times] calls.
   Like [Contract], the counters are per-instantiation globals — use a
   fresh application (or [reset]) per test. *)
module Chaos (P : S) = struct
  type state = P.state
  type move = P.move

  type nonrec fault = fault =
    | Nan_cost
    | Inf_cost
    | Raise_cost
    | Raise_apply
    | Raise_revert
    | Slow_move of float

  exception Fault of string

  type planned = { fault : fault; after : int; mutable times : int }

  let plans : planned list ref = ref []
  let injected_count = ref 0
  let cost_calls = ref 0
  let apply_calls = ref 0
  let revert_calls = ref 0
  let move_calls = ref 0

  let plan ?(after = 0) ?(times = 1) fault =
    if after < 0 then invalid_arg "Chaos.plan: negative after";
    if times < 1 then invalid_arg "Chaos.plan: times < 1";
    plans := !plans @ [ { fault; after; times } ]

  let reset () =
    plans := [];
    injected_count := 0;
    cost_calls := 0;
    apply_calls := 0;
    revert_calls := 0;
    move_calls := 0

  let injected () = !injected_count

  (* First still-armed plan of a matching fault class whose dormancy has
     elapsed for this operation's call counter ([calls] is 1-based and
     includes the current call). *)
  let firing select calls =
    let rec find = function
      | [] -> None
      | p :: rest ->
          if p.times > 0 && select p.fault && calls > p.after then Some p
          else find rest
    in
    match find !plans with
    | Some p ->
        p.times <- p.times - 1;
        incr injected_count;
        Some p.fault
    | None -> None

  let fault_msg op calls = Printf.sprintf "chaos: injected %s fault at call %d" op calls

  let cost s =
    incr cost_calls;
    match
      firing
        (function Nan_cost | Inf_cost | Raise_cost -> true | _ -> false)
        !cost_calls
    with
    | Some Nan_cost -> Float.nan
    | Some Inf_cost -> Float.infinity
    | Some Raise_cost -> raise (Fault (fault_msg "cost" !cost_calls))
    | Some _ | None -> P.cost s

  let random_move rng s =
    incr move_calls;
    (match
       firing (function Slow_move _ -> true | _ -> false) !move_calls
     with
    | Some (Slow_move d) ->
        let t0 = Sys.time () in
        while Sys.time () -. t0 < d do
          ()
        done
    | Some _ | None -> ());
    P.random_move rng s

  let apply s m =
    incr apply_calls;
    (match firing (function Raise_apply -> true | _ -> false) !apply_calls with
    | Some _ -> raise (Fault (fault_msg "apply" !apply_calls))
    | None -> ());
    P.apply s m

  let revert s m =
    incr revert_calls;
    (match
       firing (function Raise_revert -> true | _ -> false) !revert_calls
     with
    | Some _ -> raise (Fault (fault_msg "revert" !revert_calls))
    | None -> ());
    P.revert s m

  let copy = P.copy
  let moves = P.moves
end

let stats_of_events events =
  List.fold_left
    (fun s ev ->
      match ev with
      | Obs.Event.Proposed _ -> { s with evaluations = s.evaluations + 1 }
      | Obs.Event.Accepted { kind = Obs.Event.Improving; _ } ->
          { s with improving = s.improving + 1 }
      | Obs.Event.Accepted { kind = Obs.Event.Lateral; _ } ->
          { s with lateral_accepted = s.lateral_accepted + 1 }
      | Obs.Event.Accepted { kind = Obs.Event.Uphill; _ } ->
          { s with uphill_accepted = s.uphill_accepted + 1 }
      | Obs.Event.Rejected _ -> { s with rejected = s.rejected + 1 }
      | Obs.Event.Temp_advance { temp; _ } ->
          { s with temperatures_visited = max s.temperatures_visited temp }
      | Obs.Event.Descent_done _ -> { s with descents = s.descents + 1 }
      | Obs.Event.Run_start _ | Obs.Event.New_best _ | Obs.Event.Span _
      | Obs.Event.Run_end _ | Obs.Event.Checkpoint_written _
      | Obs.Event.Retry _ | Obs.Event.Quarantined _
      | Obs.Event.Rung_standing _ ->
          s)
    empty_stats events
