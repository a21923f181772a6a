(* The incremental-evaluation fast path: for every domain that ships a
   [delta_ops] record, an engine run on the fast path must be
   indistinguishable from the same run on the full-recompute path —
   same accept/reject decisions, same counters, bit-identical costs.
   Plus the satellites that ride along: delta-path checkpoint resume,
   the [Contract.wrap_delta] sanitizer, the difference-class plateau
   fix in [Gfun], and the serialized sweep observer. *)

let case name f = Alcotest.test_case name `Quick f
let bits = Int64.bits_of_float

(* Rebuild a delta record with a different resync cadence (tighter than
   the test budgets, so the resynchronization actually executes). *)
let with_recost d n =
  Mc_problem.delta_ops ~recost_every:n ~propose:d.Mc_problem.propose
    ~delta:d.Mc_problem.delta ~commit:d.Mc_problem.commit
    ~abandon:d.Mc_problem.abandon ()

(* ------------------ fast path = slow path, everywhere ------------------ *)

(* Run all three engines twice from the same seed and start state —
   once per cost-tracking path — and require identical outcomes.  The
   adapters' deltas are bit-exact (cached tour length maintained by the
   same delta; exact integers in float elsewhere), so the comparison is
   on raw bits, not within a tolerance. *)
module Equiv (P : Mc_problem.S) = struct
  module F1 = Figure1.Make (P)
  module F2 = Figure2.Make (P)
  module RL = Rejectionless.Make (P)

  let check_runs msg (slow : P.state Mc_problem.run)
      (fast : P.state Mc_problem.run) =
    Alcotest.check Alcotest.int64 (msg ^ ": best_cost")
      (bits slow.Mc_problem.best_cost) (bits fast.Mc_problem.best_cost);
    Alcotest.check Alcotest.int64 (msg ^ ": final_cost")
      (bits slow.Mc_problem.final_cost) (bits fast.Mc_problem.final_cost);
    Alcotest.check Alcotest.bool (msg ^ ": stats") true
      (slow.Mc_problem.stats = fast.Mc_problem.stats)

  let engines ~msg ~seed ~evals ~gfun ~schedule ~delta_ops ~make_state =
    let p1 =
      F1.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) ()
    in
    check_runs (msg ^ "/figure1")
      (F1.run (Rng.create ~seed) p1 (make_state ()))
      (F1.run ~delta_ops (Rng.create ~seed) p1 (make_state ()));
    let p2 =
      F2.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) ()
    in
    check_runs (msg ^ "/figure2")
      (F2.run (Rng.create ~seed) p2 (make_state ()))
      (F2.run ~delta_ops (Rng.create ~seed) p2 (make_state ()));
    let pr = RL.params ~gfun ~schedule ~budget:(Budget.Evaluations evals) in
    check_runs (msg ^ "/rejectionless")
      (RL.run (Rng.create ~seed) pr (make_state ()))
      (RL.run ~delta_ops (Rng.create ~seed) pr (make_state ()))

  (* Once at the adapter's own cadence, once at a deliberately tiny one
     (prime, so resyncs land at awkward ticks). *)
  let all ~msg ~seed ~evals ~gfun ~schedule ~delta_ops ~make_state () =
    engines ~msg ~seed ~evals ~gfun ~schedule ~delta_ops ~make_state;
    engines ~msg:(msg ^ "/recost-7") ~seed ~evals ~gfun ~schedule
      ~delta_ops:(with_recost delta_ops 7) ~make_state
end

let metro y = (Gfun.metropolis, Schedule.of_array [| y |])

let test_equiv_tsp_two_opt () =
  let module E = Equiv (Tsp_problem) in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:1) ~n:32 in
  let gfun, schedule = metro 0.05 in
  E.all ~msg:"tsp-2opt" ~seed:101 ~evals:3000 ~gfun ~schedule
    ~delta_ops:Tsp_problem.delta_ops
    ~make_state:(fun () -> Tsp_heuristics.nearest_neighbor inst ~start:0)
    ()

let test_equiv_tsp_or_opt () =
  let module E = Equiv (Tsp_problem.Or_opt) in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:2) ~n:32 in
  let gfun, schedule = metro 0.05 in
  E.all ~msg:"tsp-oropt" ~seed:102 ~evals:3000 ~gfun ~schedule
    ~delta_ops:Tsp_problem.Or_opt.delta_ops
    ~make_state:(fun () -> Tsp_heuristics.nearest_neighbor inst ~start:0)
    ()

let test_equiv_qap () =
  let module E = Equiv (Qap.Problem) in
  let inst = Qap.random_instance (Rng.create ~seed:3) ~n:12 ~max_entry:9 in
  let gfun, schedule = metro 50. in
  E.all ~msg:"qap" ~seed:103 ~evals:3000 ~gfun ~schedule
    ~delta_ops:Qap.Problem.delta_ops
    ~make_state:(fun () -> Qap.copy inst)
    ()

let test_equiv_partition () =
  let module E = Equiv (Partition_problem) in
  let nl = Netlist.random_gola (Rng.create ~seed:4) ~elements:30 ~nets:90 in
  let start = Bipartition.random_balanced (Rng.create ~seed:5) nl in
  let gfun, schedule = metro 1. in
  E.all ~msg:"partition" ~seed:104 ~evals:3000 ~gfun ~schedule
    ~delta_ops:Partition_problem.delta_ops
    ~make_state:(fun () -> Partition_problem.copy start)
    ()

let test_equiv_placement () =
  let module E = Equiv (Placement.Problem) in
  let nl =
    Netlist.random_nola (Rng.create ~seed:6) ~elements:24 ~nets:60
      ~min_pins:2 ~max_pins:4
  in
  let start = Placement.random (Rng.create ~seed:7) ~rows:6 ~cols:6 nl in
  let gfun, schedule = metro 3. in
  E.all ~msg:"placement" ~seed:105 ~evals:3000 ~gfun ~schedule
    ~delta_ops:Placement.Problem.delta_ops
    ~make_state:(fun () -> Placement.copy start)
    ()

(* Linarr — the paper's own benchmark.  Density is a max over cuts, so
   its trial evaluation exercises the histogram walk-down ("density
   might drop") and the pending-commit replay, neither of which the
   sum-shaped objectives above have. *)

let gola_nl seed = Netlist.random_gola (Rng.create ~seed) ~elements:40 ~nets:110

let nola_nl seed =
  Netlist.random_nola (Rng.create ~seed) ~elements:36 ~nets:90 ~min_pins:2
    ~max_pins:5

(* Both families again at n = 48, each adapter once at its own cadence. *)
let gola48 = Netlist.random_gola (Rng.create ~seed:2) ~elements:48 ~nets:140

let nola48 =
  Netlist.random_nola (Rng.create ~seed:1) ~elements:48 ~nets:120 ~min_pins:2
    ~max_pins:5

let test_equiv_linarr_swap () =
  let module E = Equiv (Linarr_problem.Swap) in
  let nl = nola_nl 21 in
  let gfun, schedule = metro 0.05 in
  let delta_ops = Linarr_problem.Swap.delta_ops in
  E.all ~msg:"linarr-swap" ~seed:106 ~evals:3000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:22) nl)
    ();
  E.engines ~msg:"swap/nola48" ~seed:3 ~evals:4000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:4) nola48);
  E.engines ~msg:"swap/gola48" ~seed:5 ~evals:4000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:6) gola48)

let test_equiv_linarr_relocate () =
  let module E = Equiv (Linarr_problem.Relocate) in
  let nl = gola_nl 23 in
  let gfun, schedule = metro 0.05 in
  let delta_ops = Linarr_problem.Relocate.delta_ops in
  E.all ~msg:"linarr-relocate" ~seed:107 ~evals:3000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:24) nl)
    ();
  E.engines ~msg:"relocate/gola48" ~seed:7 ~evals:4000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:8) gola48)

let test_equiv_linarr_swap_sum_cuts () =
  let module E = Equiv (Linarr_problem.Swap_sum_cuts) in
  let nl = nola_nl 25 in
  let delta_ops = Linarr_problem.Swap_sum_cuts.delta_ops in
  let gfun, schedule = metro 0.5 in
  E.all ~msg:"linarr-swap-sum-cuts" ~seed:108 ~evals:3000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:26) nl)
    ();
  let gfun, schedule = metro 0.05 in
  E.engines ~msg:"swap-sum-cuts/nola48" ~seed:9 ~evals:4000 ~gfun ~schedule ~delta_ops
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:10) nola48)

(* The three linarr delta records under the Contract sanitizer: every
   delta is probed against an apply/cost/revert round trip, and the
   probed fast path must still match the slow path bit-for-bit (the
   probes themselves may not perturb the walk). *)
let test_linarr_contract_wrap_delta () =
  let gfun, schedule = metro 0.05 in
  (let module P = Linarr_problem.Swap in
   let module C = Mc_problem.Contract (P) in
   let module E = Equiv (P) in
   let nl = nola_nl 27 in
   E.engines ~msg:"linarr-swap/contract" ~seed:109 ~evals:600 ~gfun ~schedule
     ~delta_ops:(C.wrap_delta P.delta_ops)
     ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:28) nl));
  (let module P = Linarr_problem.Relocate in
   let module C = Mc_problem.Contract (P) in
   let module E = Equiv (P) in
   let nl = gola_nl 29 in
   E.engines ~msg:"linarr-relocate/contract" ~seed:110 ~evals:600 ~gfun
     ~schedule
     ~delta_ops:(C.wrap_delta P.delta_ops)
     ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:30) nl));
  let module P = Linarr_problem.Swap_sum_cuts in
  let module C = Mc_problem.Contract (P) in
  let module E = Equiv (P) in
  let nl = nola_nl 31 in
  E.engines ~msg:"linarr-swap-sum-cuts/contract" ~seed:111 ~evals:600 ~gfun
    ~schedule
    ~delta_ops:(C.wrap_delta P.delta_ops)
    ~make_state:(fun () -> Arrangement.random (Rng.create ~seed:32) nl)

(* The two TSP delta records under the same sanitizer, on all three
   engines: every probed 2-opt and or-opt delta must match its apply /
   cost / revert round trip, and the probed runs must still match the
   full-recompute runs bit-for-bit. *)
let test_tsp_contract_wrap_delta () =
  let gfun, schedule = metro 0.05 in
  (let module P = Tsp_problem in
   let module C = Mc_problem.Contract (P) in
   let module E = Equiv (P) in
   let inst = Tsp_instance.random_uniform (Rng.create ~seed:41) ~n:16 in
   let before = C.checks_performed () in
   E.engines ~msg:"tsp-2opt/contract" ~seed:42 ~evals:1500 ~gfun ~schedule
     ~delta_ops:(C.wrap_delta P.delta_ops)
     ~make_state:(fun () -> Tsp_heuristics.nearest_neighbor inst ~start:0);
   Alcotest.check Alcotest.bool "tsp-2opt/contract: checks advanced" true
     (C.checks_performed () > before));
  let module P = Tsp_problem.Or_opt in
  let module C = Mc_problem.Contract (P) in
  let module E = Equiv (P) in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:43) ~n:16 in
  let before = C.checks_performed () in
  E.engines ~msg:"tsp-oropt/contract" ~seed:44 ~evals:1500 ~gfun ~schedule
    ~delta_ops:(C.wrap_delta P.delta_ops)
    ~make_state:(fun () -> Tsp_heuristics.nearest_neighbor inst ~start:0);
  Alcotest.check Alcotest.bool "tsp-oropt/contract: checks advanced" true
    (C.checks_performed () > before)

(* The two objectives sharing the swap move must not share a price:
   [Swap.delta] is the density change, [Swap_sum_cuts.delta] the
   sum-of-cuts change, verified against apply-then-measure — and the
   two must actually disagree somewhere, or a cross-wiring would be
   invisible. *)
let test_swap_objectives_not_cross_wired () =
  let nl = nola_nl 33 in
  let state = Arrangement.random (Rng.create ~seed:34) nl in
  let rng = Rng.create ~seed:35 in
  let differed = ref false in
  for _ = 1 to 300 do
    let p, q = Rng.pair_distinct rng (Arrangement.size state) in
    let d_density =
      Linarr_problem.Swap.delta_ops.Mc_problem.delta state (p, q)
    in
    let d_sum =
      Linarr_problem.Swap_sum_cuts.delta_ops.Mc_problem.delta state (p, q)
    in
    let density0 = Arrangement.density state
    and sum0 = Arrangement.sum_of_cuts state in
    Arrangement.swap_positions state p q;
    let true_density = float_of_int (Arrangement.density state - density0)
    and true_sum = float_of_int (Arrangement.sum_of_cuts state - sum0) in
    Arrangement.swap_positions state p q;
    Alcotest.check Alcotest.int64 "Swap.delta prices density"
      (bits true_density) (bits d_density);
    Alcotest.check Alcotest.int64 "Swap_sum_cuts.delta prices sum of cuts"
      (bits true_sum) (bits d_sum);
    if bits d_density <> bits d_sum then differed := true
  done;
  Alcotest.check Alcotest.bool "objectives are distinguishable" true !differed

(* Random seeds, not just the hand-picked ones: the 2-opt fast path
   must match the slow path for any seed and any budget. *)
let prop_tsp_fast_path_matches =
  let module F1 = Figure1.Make (Tsp_problem) in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:8) ~n:20 in
  let gen =
    QCheck.Gen.(
      int >>= fun seed ->
      int_range 50 1500 >>= fun evals ->
      int_range 1 50 >|= fun recost -> (seed, evals, recost))
  in
  QCheck.Test.make ~count:40
    ~name:"qcheck: tsp figure1 fast path = slow path (any seed)"
    (QCheck.make gen)
    (fun (seed, evals, recost) ->
      let params =
        F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.05 |])
          ~budget:(Budget.Evaluations evals) ()
      in
      let delta_ops =
        Mc_problem.delta_ops ~recost_every:recost
          ~propose:Tsp_problem.delta_ops.Mc_problem.propose
          ~delta:Tsp_problem.delta_ops.Mc_problem.delta
          ~commit:Tsp_problem.delta_ops.Mc_problem.commit
          ~abandon:Tsp_problem.delta_ops.Mc_problem.abandon ()
      in
      let slow =
        F1.run (Rng.create ~seed) params
          (Tsp_heuristics.nearest_neighbor inst ~start:0)
      in
      let fast =
        F1.run ~delta_ops (Rng.create ~seed) params
          (Tsp_heuristics.nearest_neighbor inst ~start:0)
      in
      bits slow.Mc_problem.best_cost = bits fast.Mc_problem.best_cost
      && bits slow.Mc_problem.final_cost = bits fast.Mc_problem.final_cost
      && slow.Mc_problem.stats = fast.Mc_problem.stats)

(* -------------------- delta-path checkpoint resume --------------------- *)

exception Simulated_kill

let test_delta_checkpoint_resume_bit_identical () =
  (* Same protocol as the resilience suite's kill-and-resume test, but
     with the walk on the incremental fast path and a resync cadence
     (7) that does not divide the kill tick: the mod-form cadence must
     make the resumed run resync at the same ticks as its uninterrupted
     twin, or the costs drift apart. *)
  let module F1 = Figure1.Make (Tsp_problem) in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:11) ~n:40 in
  let make_state () = Tsp_heuristics.nearest_neighbor inst ~start:0 in
  let delta_ops =
    Mc_problem.delta_ops ~recost_every:7
      ~propose:Tsp_problem.delta_ops.Mc_problem.propose
      ~delta:Tsp_problem.delta_ops.Mc_problem.delta
      ~commit:Tsp_problem.delta_ops.Mc_problem.commit
      ~abandon:Tsp_problem.delta_ops.Mc_problem.abandon ()
  in
  let params =
    F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.05 |])
      ~budget:(Budget.Evaluations 4000) ()
  in
  let base = F1.run ~delta_ops (Rng.create ~seed:12) params (make_state ()) in
  let captured = ref None in
  let killing snap ~current ~best =
    if snap.Figure1.ticks = 2000 then begin
      captured := Some (snap, Tour.copy current, Tour.copy best);
      raise Simulated_kill
    end
  in
  (match
     F1.run ~delta_ops ~checkpoint_every:1000 ~on_checkpoint:killing
       (Rng.create ~seed:12) params (make_state ())
   with
  | (_ : Tour.t Mc_problem.run) -> Alcotest.fail "run was not interrupted"
  | exception Simulated_kill -> ());
  let snap, current, best =
    match !captured with
    | Some c -> c
    | None -> Alcotest.fail "no checkpoint captured"
  in
  let rng =
    match Rng.of_state snap.Figure1.rng with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let resumed = F1.run ~delta_ops ~resume:(snap, best) rng params current in
  Alcotest.check Alcotest.int64 "best_cost" (bits base.Mc_problem.best_cost)
    (bits resumed.Mc_problem.best_cost);
  Alcotest.check Alcotest.int64 "final_cost" (bits base.Mc_problem.final_cost)
    (bits resumed.Mc_problem.final_cost);
  Alcotest.check Alcotest.bool "stats" true
    (base.Mc_problem.stats = resumed.Mc_problem.stats)

let test_drifting_delta_resume_resyncs_on_cadence () =
  (* The TSP delta is exact, so a resync there changes nothing and the
     test above cannot see when one happens.  Here every priced move
     drifts by 2^-20, so [hi] parts from the true cost between resyncs
     and the resumed run's costs match its uninterrupted twin's only if
     it resyncs at the same ticks: the multiples of 7, counted from
     1995 for a kill at 2000, not from the kill tick. *)
  let module F1 = Figure1.Make (Tsp_problem) in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:11) ~n:40 in
  let d = Tsp_problem.delta_ops in
  let delta_ops =
    Mc_problem.delta_ops ~recost_every:7 ~propose:d.Mc_problem.propose
      ~delta:(fun s m -> d.Mc_problem.delta s m +. 0x1p-20)
      ~commit:d.Mc_problem.commit ~abandon:d.Mc_problem.abandon ()
  in
  (* Hot enough that most moves are taken, so the drift piles up. *)
  let params =
    F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1. |])
      ~budget:(Budget.Evaluations 4000) ()
  in
  let start () = Tsp_heuristics.nearest_neighbor inst ~start:0 in
  let base = F1.run ~delta_ops (Rng.create ~seed:12) params (start ()) in
  let captured = ref None in
  let killing snap ~current ~best =
    if snap.Figure1.ticks = 2000 then begin
      captured := Some (snap, Tour.copy current, Tour.copy best);
      raise Simulated_kill
    end
  in
  (match
     F1.run ~delta_ops ~checkpoint_every:1000 ~on_checkpoint:killing
       (Rng.create ~seed:12) params (start ())
   with
  | (_ : Tour.t Mc_problem.run) -> Alcotest.fail "run was not interrupted"
  | exception Simulated_kill -> ());
  let snap, current, best = Option.get !captured in
  let rng = Result.get_ok (Rng.of_state snap.Figure1.rng) in
  let resumed = F1.run ~delta_ops ~resume:(snap, best) rng params current in
  Alcotest.check Alcotest.int64 "best_cost" (bits base.Mc_problem.best_cost)
    (bits resumed.Mc_problem.best_cost);
  Alcotest.check Alcotest.int64 "final_cost" (bits base.Mc_problem.final_cost)
    (bits resumed.Mc_problem.final_cost)

let test_linarr_delta_checkpoint_resume_bit_identical () =
  (* Linarr variant, with the states routed through the checkpoint
     codec: a checkpoint holds only the order array, so the decode must
     rebuild the incremental cut state (spans, histogram, density) well
     enough that the resumed fast-path walk is bit-identical to the
     uninterrupted one. *)
  let module F1 = Figure1.Make (Linarr_problem.Swap) in
  let nl = nola_nl 36 in
  let codec = Linarr_problem.codec nl in
  let make_state () = Arrangement.random (Rng.create ~seed:37) nl in
  let delta_ops = with_recost Linarr_problem.Swap.delta_ops 7 in
  let params =
    F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.05 |])
      ~budget:(Budget.Evaluations 4000) ()
  in
  let base = F1.run ~delta_ops (Rng.create ~seed:38) params (make_state ()) in
  let captured = ref None in
  let killing snap ~current ~best =
    if snap.Figure1.ticks = 2000 then begin
      captured := Some (snap, Arrangement.copy current, Arrangement.copy best);
      raise Simulated_kill
    end
  in
  (match
     F1.run ~delta_ops ~checkpoint_every:1000 ~on_checkpoint:killing
       (Rng.create ~seed:38) params (make_state ())
   with
  | (_ : Arrangement.t Mc_problem.run) ->
      Alcotest.fail "run was not interrupted"
  | exception Simulated_kill -> ());
  let snap, current, best =
    match !captured with
    | Some c -> c
    | None -> Alcotest.fail "no checkpoint captured"
  in
  let round_trip state =
    match codec.Mc_problem.decode (codec.Mc_problem.encode state) with
    | Ok s -> s
    | Error msg -> Alcotest.fail ("codec round trip: " ^ msg)
  in
  let current = round_trip current and best = round_trip best in
  let rng =
    match Rng.of_state snap.Figure1.rng with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let resumed = F1.run ~delta_ops ~resume:(snap, best) rng params current in
  Alcotest.check Alcotest.int64 "best_cost" (bits base.Mc_problem.best_cost)
    (bits resumed.Mc_problem.best_cost);
  Alcotest.check Alcotest.int64 "final_cost" (bits base.Mc_problem.final_cost)
    (bits resumed.Mc_problem.final_cost);
  Alcotest.check Alcotest.bool "stats" true
    (base.Mc_problem.stats = resumed.Mc_problem.stats)

(* ----------------------- Contract.wrap_delta --------------------------- *)

(* The Line walker of the engine suite: a state cheap enough that the
   sanitizer's aggressive recomputation costs nothing. *)
module Line = struct
  type state = { mutable x : int; cost_fn : int -> float }
  type move = int

  let cost s = s.cost_fn s.x
  let random_move rng _ = if Rng.bool rng then 1 else -1
  let apply s m = s.x <- s.x + m
  let revert s m = s.x <- s.x - m
  let copy s = { s with x = s.x }
  let moves _ = List.to_seq [ -1; 1 ]
end

module LC = Mc_problem.Contract (Line)

let vee x = float_of_int (abs x)

let honest_ops () =
  Mc_problem.delta_ops ~propose:Line.random_move
    ~delta:(fun s m -> s.Line.cost_fn (s.Line.x + m) -. s.Line.cost_fn s.Line.x)
    ~commit:Line.apply
    ~abandon:(fun _ _ -> ())
    ()

let test_wrap_delta_passes_honest_adapter () =
  let module F1 = Figure1.Make (Line) in
  let before = LC.checks_performed () in
  let params =
    F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1. |])
      ~budget:(Budget.Evaluations 500) ()
  in
  let r =
    F1.run
      ~delta_ops:(LC.wrap_delta (honest_ops ()))
      (Rng.create ~seed:13) params
      { Line.x = 10; cost_fn = vee }
  in
  Alcotest.check Alcotest.int "budget spent" 500
    r.Mc_problem.stats.Mc_problem.evaluations;
  Alcotest.check Alcotest.bool "checks advanced" true
    (LC.checks_performed () > before)

let test_wrap_delta_catches_lying_delta () =
  let lying =
    Mc_problem.delta_ops ~propose:Line.random_move
      ~delta:(fun _ _ -> 42.)
      ~commit:Line.apply
      ~abandon:(fun _ _ -> ())
      ()
  in
  let wrapped = LC.wrap_delta lying in
  let s = { Line.x = 5; cost_fn = vee } in
  match wrapped.Mc_problem.delta s 1 with
  | (_ : float) -> Alcotest.fail "lying delta not caught"
  | exception Mc_problem.Contract_violation _ -> ()

let test_wrap_delta_catches_mutating_abandon () =
  let mutating =
    Mc_problem.delta_ops ~propose:Line.random_move
      ~delta:(fun s m ->
        s.Line.cost_fn (s.Line.x + m) -. s.Line.cost_fn s.Line.x)
      ~commit:Line.apply ~abandon:Line.apply ()
  in
  let wrapped = LC.wrap_delta mutating in
  let s = { Line.x = 5; cost_fn = vee } in
  match wrapped.Mc_problem.abandon s 1 with
  | () -> Alcotest.fail "state-mutating abandon not caught"
  | exception Mc_problem.Contract_violation _ -> ()

let test_wrap_delta_validation () =
  (match LC.wrap_delta ~tol:(-1e-9) (honest_ops ()) with
  | (_ : (Line.state, Line.move) Mc_problem.delta_ops) ->
      Alcotest.fail "negative tolerance accepted"
  | exception Invalid_argument _ -> ());
  match
    Mc_problem.delta_ops ~recost_every:0 ~propose:Line.random_move
      ~delta:(fun _ _ -> 0.)
      ~commit:Line.apply
      ~abandon:(fun _ _ -> ())
      ()
  with
  | (_ : (Line.state, Line.move) Mc_problem.delta_ops) ->
      Alcotest.fail "recost_every = 0 accepted"
  | exception Invalid_argument _ -> ()

(* ------------------ difference classes on a plateau -------------------- *)

let plateau_is_certain_acceptance ~msg g ~temp =
  let v = Gfun.eval g ~temp ~y:0. ~hi:7. ~hj:7. in
  Alcotest.check Alcotest.bool (msg ^ ": y = 0 plateau is +inf") true
    (Float.equal v infinity);
  let v = Gfun.eval g ~temp ~y:2.5 ~hi:7. ~hj:7. in
  Alcotest.check Alcotest.bool (msg ^ ": y > 0 plateau is +inf") true
    (Float.equal v infinity)

let test_diff_classes_plateau_not_nan () =
  plateau_is_certain_acceptance ~msg:"linear-diff"
    (Gfun.poly_diff ~degree:1) ~temp:1;
  plateau_is_certain_acceptance ~msg:"cubic-diff"
    (Gfun.poly_diff ~degree:3) ~temp:1;
  plateau_is_certain_acceptance ~msg:"exponential-diff" Gfun.exponential_diff
    ~temp:1;
  plateau_is_certain_acceptance ~msg:"six-quadratic-diff"
    (Gfun.six_poly_diff ~degree:2) ~temp:4;
  plateau_is_certain_acceptance ~msg:"six-exponential-diff"
    Gfun.six_exponential_diff ~temp:4

let test_diff_class_walk_does_not_freeze () =
  (* On a flat landscape every proposal is lateral, and the difference
     quotient divides by zero.  The class must treat a plateau as
     certain acceptance (matching Metropolis, [e^0 = 1]) — a NaN here
     would make [r < g] false forever and silently freeze the walk
     into 100% rejections. *)
  let module F1 = Figure1.Make (Line) in
  let s = { Line.x = 0; cost_fn = (fun _ -> 7.) } in
  let params =
    F1.params ~gfun:(Gfun.poly_diff ~degree:1)
      ~schedule:(Schedule.of_array [| 1. |])
      ~budget:(Budget.Evaluations 100) ()
  in
  let r = F1.run (Rng.create ~seed:14) params s in
  Alcotest.check Alcotest.int "all lateral accepted" 100
    r.Mc_problem.stats.Mc_problem.lateral_accepted;
  Alcotest.check Alcotest.int "none rejected" 0
    r.Mc_problem.stats.Mc_problem.rejected

(* ------------------------ cached Gfun lookup --------------------------- *)

let test_find_by_name_cached_lookup () =
  (match Gfun.find_by_name ~m:100 "metropolis" with
  | Some g -> Alcotest.check Alcotest.string "case-insensitive" "Metropolis"
        (Gfun.name g)
  | None -> Alcotest.fail "Metropolis not found");
  (match Gfun.find_by_name ~m:100 "no-such-class" with
  | None -> ()
  | Some _ -> Alcotest.fail "bogus name found");
  (* The index is cached per catalog parameter [m] and shared between
     domains; hammer it concurrently to show the mutex holds up. *)
  let lookup () =
    for i = 0 to 199 do
      let m = 50 + (i mod 4) in
      match Gfun.find_by_name ~m "METROPOLIS" with
      | Some _ -> ()
      | None -> failwith "lookup lost under contention"
    done
  in
  let workers = Array.init 4 (fun _ -> Domain.spawn lookup) in
  Array.iter Domain.join workers

(* ------------------- serialized sweep observer ------------------- *)

let test_sweep_observer_serialized () =
  (* Regression: with several worker domains funnelling events into one
     plain (non-atomic) sink, unserialized emits lose increments.  The
     sweep's mutex wrapper must deliver exactly the event count a
     sequential run produces. *)
  let jobs =
    List.init 8 (fun i ->
        Portfolio.Job.figure1
          (module Line)
          ~label:(string_of_int i) ~gfun:Gfun.metropolis
          ~schedule:(Schedule.of_array [| 1. |])
          ~make_state:(fun _ -> { Line.x = 10 + i; cost_fn = vee })
          ())
  in
  let count ~domains =
    let n = ref 0 in
    let observer = Obs.Observer.of_fun (fun _ -> incr n) in
    let report =
      Portfolio.sweep ~domains ~observer (Rng.create ~seed:15)
        ~budget:(Budget.Evaluations 500) jobs
    in
    Alcotest.check Alcotest.int "budgets add up" (8 * 500)
      report.Portfolio.total_evaluations;
    !n
  in
  let sequential = count ~domains:1 in
  Alcotest.check Alcotest.bool "events flowed" true (sequential > 0);
  Alcotest.check Alcotest.int "parallel delivers every event" sequential
    (count ~domains:4)

let suite =
  [
    case "fast path = slow path: tsp 2-opt" test_equiv_tsp_two_opt;
    case "fast path = slow path: tsp or-opt" test_equiv_tsp_or_opt;
    case "fast path = slow path: qap" test_equiv_qap;
    case "fast path = slow path: partition" test_equiv_partition;
    case "fast path = slow path: placement" test_equiv_placement;
    case "fast path = slow path: linarr swap" test_equiv_linarr_swap;
    case "fast path = slow path: linarr relocate" test_equiv_linarr_relocate;
    case "fast path = slow path: linarr swap (sum of cuts)"
      test_equiv_linarr_swap_sum_cuts;
    case "linarr delta_ops under Contract.wrap_delta, all engines"
      test_linarr_contract_wrap_delta;
    case "tsp delta_ops under Contract.wrap_delta, all engines"
      test_tsp_contract_wrap_delta;
    case "swap density / sum-of-cuts objectives not cross-wired"
      test_swap_objectives_not_cross_wired;
    QCheck_alcotest.to_alcotest prop_tsp_fast_path_matches;
    case "delta-path kill and resume is bit-identical"
      test_delta_checkpoint_resume_bit_identical;
    case "linarr delta-path kill/resume through codec is bit-identical"
      test_linarr_delta_checkpoint_resume_bit_identical;
    case "drifting delta: a resumed run resyncs on the same ticks"
      test_drifting_delta_resume_resyncs_on_cadence;
    case "wrap_delta passes an honest adapter"
      test_wrap_delta_passes_honest_adapter;
    case "wrap_delta catches a lying delta" test_wrap_delta_catches_lying_delta;
    case "wrap_delta catches a state-mutating abandon"
      test_wrap_delta_catches_mutating_abandon;
    case "wrap_delta / delta_ops validation" test_wrap_delta_validation;
    case "difference classes: plateau is +inf, not NaN"
      test_diff_classes_plateau_not_nan;
    case "difference-class walk does not freeze on a plateau"
      test_diff_class_walk_does_not_freeze;
    case "find_by_name: cached, case-insensitive, domain-safe"
      test_find_by_name_cached_lookup;
    case "sweep observer is serialized across domains"
      test_sweep_observer_serialized;
  ]
