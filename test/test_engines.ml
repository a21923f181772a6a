(* The Figure 1 / Figure 2 / rejectionless engines, exercised on a tiny
   synthetic problem with a hand-checkable landscape, then integrated
   with the arrangement substrate. *)

let case name f = Alcotest.test_case name `Quick f

(* A walker on the integers.  [cost_fn] shapes the landscape; moves are
   +-1 steps.  V-shaped |x| gives a single optimum; W-shaped
   ||x| - 3| gives two optima separated by a barrier at 0. *)
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

module F1 = Figure1.Make (Line)

(* Figure 2 and the rejection-free engine on [Line], through the one
   entry point. *)
let walk ?observer strategy ~gfun ~schedule ~budget rng s =
  Engine.or_raise (Engine.run (module Line) ?observer strategy ~gfun ~schedule ~budget rng s)

let vee x = float_of_int (abs x)
let double_well x = float_of_int (abs (abs x - 3))
let never_uphill = Gfun.custom ~name:"never" ~k:1 (fun ~temp:_ ~y:_ ~hi:_ ~hj:_ -> 0.)
let always_uphill = Gfun.custom ~name:"always" ~k:1 (fun ~temp:_ ~y:_ ~hi:_ ~hj:_ -> 1.)

let one_schedule = Schedule.constant ~k:1 1.

(* ---------------------------- Figure 1 --------------------------- *)

let test_f1_budget_respected () =
  let s = { Line.x = 100; cost_fn = vee } in
  let p = F1.params ~gfun:never_uphill ~schedule:one_schedule ~budget:(Budget.Evaluations 57) () in
  let r = F1.run (Rng.create ~seed:1) p s in
  Alcotest.check Alcotest.int "exactly 57 evaluations" 57 r.Mc_problem.stats.Mc_problem.evaluations

let test_f1_descends_to_optimum () =
  let s = { Line.x = 10; cost_fn = vee } in
  let p = F1.params ~gfun:never_uphill ~schedule:one_schedule ~budget:(Budget.Evaluations 500) () in
  let r = F1.run (Rng.create ~seed:2) p s in
  Alcotest.check (Alcotest.float 0.) "reaches 0" 0. r.Mc_problem.best_cost;
  Alcotest.check (Alcotest.float 0.) "stays at 0 (uphill never accepted)" 0. r.Mc_problem.final_cost;
  Alcotest.check Alcotest.int "no uphill accepted" 0 r.Mc_problem.stats.Mc_problem.uphill_accepted

let test_f1_best_never_worse_than_initial () =
  let s = { Line.x = 4; cost_fn = vee } in
  let p = F1.params ~gfun:always_uphill ~schedule:one_schedule ~budget:(Budget.Evaluations 100) () in
  let r = F1.run (Rng.create ~seed:3) p s in
  Alcotest.check Alcotest.bool "best <= initial" true (r.Mc_problem.best_cost <= 4.)

let test_f1_crosses_barrier_with_uphill () =
  (* Start in the x = +3 well; only uphill acceptance can reach -3.
     With g = 0 the walk stays trapped at x = 3. *)
  let trapped = { Line.x = 3; cost_fn = double_well } in
  let p0 = F1.params ~gfun:never_uphill ~schedule:one_schedule ~budget:(Budget.Evaluations 2000) () in
  let r0 = F1.run (Rng.create ~seed:4) p0 trapped in
  Alcotest.check Alcotest.bool "trapped in the + well" true (trapped.Line.x > 0);
  Alcotest.check Alcotest.int "no uphill" 0 r0.Mc_problem.stats.Mc_problem.uphill_accepted;
  let free = { Line.x = 3; cost_fn = double_well } in
  let p1 = F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 5. |])
      ~budget:(Budget.Evaluations 2000) () in
  let r1 = F1.run (Rng.create ~seed:4) p1 free in
  Alcotest.check Alcotest.bool "accepts uphill" true
    (r1.Mc_problem.stats.Mc_problem.uphill_accepted > 0)

let test_f1_defer_rule () =
  (* g = 1 with the defer rule: uphill moves do get taken, but only
     after [threshold] consecutive energy-increasing proposals. *)
  let s = { Line.x = 0; cost_fn = vee } in
  let p =
    F1.params ~defer_threshold:3 ~gfun:Gfun.g_one ~schedule:one_schedule
      ~budget:(Budget.Evaluations 200) ()
  in
  let r = F1.run (Rng.create ~seed:5) p s in
  (* At the optimum every proposal is uphill, so with threshold 3 about
     a third of the 200 proposals are accepted climbs. *)
  let climbs = r.Mc_problem.stats.Mc_problem.uphill_accepted in
  Alcotest.check Alcotest.bool "climbs happen" true (climbs > 20);
  Alcotest.check Alcotest.bool "but only about 1 in 3" true (climbs < 100);
  Alcotest.check (Alcotest.float 0.) "best still 0" 0. r.Mc_problem.best_cost

let test_f1_defer_threshold_1_always_climbs () =
  let s = { Line.x = 0; cost_fn = vee } in
  let p =
    F1.params ~defer_threshold:1 ~gfun:Gfun.g_one ~schedule:one_schedule
      ~budget:(Budget.Evaluations 100) ()
  in
  let r = F1.run (Rng.create ~seed:6) p s in
  Alcotest.check Alcotest.int "every non-improving proposal accepted" 0
    r.Mc_problem.stats.Mc_problem.rejected

let test_f1_lateral_moves_accepted () =
  let s = { Line.x = 0; cost_fn = (fun _ -> 7.) } in
  let p = F1.params ~gfun:Gfun.metropolis ~schedule:one_schedule ~budget:(Budget.Evaluations 100) () in
  let r = F1.run (Rng.create ~seed:7) p s in
  Alcotest.check Alcotest.int "all lateral" 100 r.Mc_problem.stats.Mc_problem.lateral_accepted;
  Alcotest.check Alcotest.int "none rejected" 0 r.Mc_problem.stats.Mc_problem.rejected

let test_f1_temperatures_advance () =
  let s = { Line.x = 50; cost_fn = vee } in
  let p =
    F1.params ~gfun:Gfun.six_temp_annealing ~schedule:(Schedule.kirkpatrick ())
      ~budget:(Budget.Evaluations 600) ()
  in
  let r = F1.run (Rng.create ~seed:8) p s in
  Alcotest.check Alcotest.int "all six temperatures visited" 6
    r.Mc_problem.stats.Mc_problem.temperatures_visited

(* The tick at which each temperature was entered, in order: the
   number of [Proposed] events seen before its [Temp_advance]. *)
let entry_ticks () =
  let ticks = ref 0 and entries = ref [] in
  let observer =
    Obs.Observer.of_fun (function
      | Obs.Event.Proposed _ -> incr ticks
      | Obs.Event.Temp_advance { temp; _ } -> entries := (temp, !ticks) :: !entries
      | _ -> ())
  in
  (observer, fun () -> List.rev !entries)

let test_f1_temperatures_advance_on_share_ends () =
  (* With no counter or acceptance limit, temperature [j + 1] is
     entered on tick [Budget.share_end budget ~k j] exactly, for exact
     and inexact quotients alike. *)
  List.iter
    (fun n ->
      let budget = Budget.Evaluations n in
      let observer, entries = entry_ticks () in
      let s = { Line.x = 50; cost_fn = vee } in
      let p =
        F1.params ~gfun:Gfun.six_temp_annealing ~schedule:(Schedule.kirkpatrick ()) ~budget ()
      in
      ignore (F1.run ~observer (Rng.create ~seed:8) p s);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "entry ticks at n = %d" n)
        (List.init 6 (fun j -> (j + 1, Budget.share_end budget ~k:6 j)))
        (entries ()))
    [ 600; 1003 ];
  let observer, entries = entry_ticks () in
  let s = { Line.x = 50; cost_fn = vee } in
  let p =
    F1.params ~gfun:Gfun.six_temp_annealing ~schedule:(Schedule.kirkpatrick ())
      ~budget:(Budget.Evaluations 10) ()
  in
  ignore (F1.run ~observer (Rng.create ~seed:8) p s);
  Alcotest.(check (list (pair int int)))
    "10 ticks over 6 shares" [ (1, 0); (2, 2); (3, 4); (4, 5); (5, 7); (6, 9) ] (entries ())

let test_f1_counter_limit_stops_early () =
  (* At the optimum with g = 0, every proposal is rejected; the counter
     marches through the k = 1 schedule and stops the run. *)
  let s = { Line.x = 0; cost_fn = vee } in
  let p =
    F1.params ~counter_limit:10 ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 10_000) ()
  in
  let r = F1.run (Rng.create ~seed:9) p s in
  Alcotest.check Alcotest.bool "stopped long before the budget" true
    (r.Mc_problem.stats.Mc_problem.evaluations < 100)

let test_f1_schedule_mismatch_rejected () =
  match
    F1.params ~gfun:Gfun.six_temp_annealing ~schedule:one_schedule
      ~budget:(Budget.Evaluations 10) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_f1_deterministic () =
  let run () =
    let s = { Line.x = 30; cost_fn = double_well } in
    let p = F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 2. |])
        ~budget:(Budget.Evaluations 400) () in
    let r = F1.run (Rng.create ~seed:10) p s in
    (r.Mc_problem.best_cost, s.Line.x)
  in
  Alcotest.check (Alcotest.pair (Alcotest.float 0.) Alcotest.int) "identical runs" (run ()) (run ())

let test_gfun_custom () =
  let g =
    Gfun.custom ~name:"step" ~k:2 (fun ~temp ~y:_ ~hi:_ ~hj:_ ->
        if temp = 1 then 0.8 else 0.1)
  in
  Alcotest.check Alcotest.string "name" "step" (Gfun.name g);
  Alcotest.check Alcotest.int "k" 2 (Gfun.k g);
  Alcotest.check Alcotest.bool "not deferring" false (Gfun.defer_uphill g);
  Alcotest.check (Alcotest.float 0.) "temp routing" 0.1
    (Gfun.eval g ~temp:2 ~y:1. ~hi:0. ~hj:1.)

let test_f1_acceptance_limit_advances () =
  (* Constant cost: every proposal is lateral and accepted under
     Metropolis, so an acceptance limit of 10 burns through the k = 6
     schedule after 60 acceptances and stops. *)
  let s = { Line.x = 0; cost_fn = (fun _ -> 5.) } in
  let p =
    F1.params ~acceptance_limit:10 ~gfun:Gfun.six_temp_annealing
      ~schedule:(Schedule.kirkpatrick ()) ~budget:(Budget.Evaluations 100_000) ()
  in
  let r = F1.run (Rng.create ~seed:40) p s in
  Alcotest.check Alcotest.int "6 temps x 10 acceptances" 60
    r.Mc_problem.stats.Mc_problem.evaluations;
  Alcotest.check Alcotest.int "all temperatures visited" 6
    r.Mc_problem.stats.Mc_problem.temperatures_visited

let test_f1_acceptance_limit_validation () =
  match
    F1.params ~acceptance_limit:0 ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 1) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "acceptance_limit 0 accepted"

let test_annealing_k () =
  Alcotest.check Alcotest.int "k = 25" 25 (Gfun.k (Gfun.annealing ~k:25));
  Alcotest.check Alcotest.string "k = 1 is Metropolis" "Metropolis"
    (Gfun.name (Gfun.annealing ~k:1));
  Alcotest.check Alcotest.string "k = 6 is the catalog class" "Six Temperature Annealing"
    (Gfun.name (Gfun.annealing ~k:6));
  let s = { Line.x = 40; cost_fn = vee } in
  let p =
    F1.params ~gfun:(Gfun.annealing ~k:25)
      ~schedule:(Schedule.uniform_points ~count:25 ~max:5.)
      ~budget:(Budget.Evaluations 3000) ()
  in
  let r = F1.run (Rng.create ~seed:41) p s in
  Alcotest.check Alcotest.int "25 temperatures visited" 25
    r.Mc_problem.stats.Mc_problem.temperatures_visited;
  Alcotest.check Alcotest.bool "made progress" true (r.Mc_problem.best_cost < 40.)

(* --------------- Traced runs (trajectory observer) ---------------- *)

let traced_run ?(capacity = 512) p rng s =
  let rec_ = Obs.Trajectory.create capacity in
  let r = F1.run ~observer:(Obs.Trajectory.observer rec_) rng p s in
  (r, rec_)

let test_traced_transparent () =
  (* A traced run must land exactly where a bare run lands (same rng
     stream, same decisions). *)
  let p = F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 2. |])
      ~budget:(Budget.Evaluations 500) () in
  let bare = { Line.x = 12; cost_fn = double_well } in
  let rb = F1.run (Rng.create ~seed:42) p bare in
  let traced = { Line.x = 12; cost_fn = double_well } in
  let rw, _ = traced_run p (Rng.create ~seed:42) traced in
  Alcotest.check (Alcotest.float 0.) "same best cost" rb.Mc_problem.best_cost
    rw.Mc_problem.best_cost;
  Alcotest.check Alcotest.int "same final position" bare.Line.x traced.Line.x

let test_traced_records_everything () =
  let p = F1.params ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 300) () in
  let _, rec_ = traced_run p (Rng.create ~seed:43) { Line.x = 5; cost_fn = vee } in
  (* the initial cost + one per proposal *)
  Alcotest.check Alcotest.int "count = evals + 1" 301 (Obs.Trajectory.count rec_);
  Alcotest.check (Alcotest.float 0.) "minimum found" 0. (Obs.Trajectory.minimum rec_)

let test_traced_decimation () =
  let p = F1.params ~defer_threshold:2 ~gfun:Gfun.g_one ~schedule:one_schedule
      ~budget:(Budget.Evaluations 10_000) () in
  let _, rec_ =
    traced_run ~capacity:16 p (Rng.create ~seed:44) { Line.x = 0; cost_fn = vee }
  in
  let series = Obs.Trajectory.series rec_ in
  Alcotest.check Alcotest.bool "bounded memory" true (Array.length series <= 16);
  Alcotest.check Alcotest.bool "stride grew" true (Obs.Trajectory.stride rec_ > 1);
  Alcotest.check Alcotest.int "counted all" 10_001 (Obs.Trajectory.count rec_);
  (* indices strictly increasing *)
  for i = 1 to Array.length series - 1 do
    Alcotest.check Alcotest.bool "monotone indices" true
      (fst series.(i) > fst series.(i - 1))
  done

(* ---------------------------- Figure 2 --------------------------- *)

let test_f2_descends_before_uphill () =
  let s = { Line.x = 7; cost_fn = vee } in
  let r =
    walk Engine.Figure2 ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 1000) (Rng.create ~seed:11) s
  in
  Alcotest.check (Alcotest.float 0.) "local optimum reached" 0. r.Mc_problem.best_cost;
  Alcotest.check Alcotest.bool "at least one descent" true
    (r.Mc_problem.stats.Mc_problem.descents >= 1)

let test_f2_redescends_after_uphill () =
  let s = { Line.x = 3; cost_fn = double_well } in
  let r =
    walk Engine.Figure2 ~gfun:always_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 2000) (Rng.create ~seed:12) s
  in
  Alcotest.check Alcotest.bool "multiple descents" true (r.Mc_problem.stats.Mc_problem.descents > 3);
  Alcotest.check (Alcotest.float 0.) "best is a well bottom" 0. r.Mc_problem.best_cost

let test_f2_restart_consumes_budget () =
  let s = { Line.x = 2; cost_fn = vee } in
  let r =
    walk Engine.Figure2 ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 5_000) (Rng.create ~seed:14) s
  in
  Alcotest.check Alcotest.int "whole budget used" 5_000 r.Mc_problem.stats.Mc_problem.evaluations

let test_f2_temperature_cycle () =
  (* At the optimum every probe is uphill and g = 0 rejects it, so each
     temperature takes exactly 100 probes; after the last one the
     schedule starts over at temperature 1. *)
  let never_uphill2 = Gfun.custom ~name:"never" ~k:2 (fun ~temp:_ ~y:_ ~hi:_ ~hj:_ -> 0.) in
  let temps = ref [] and probes = ref [] in
  let observer =
    Obs.Observer.of_fun (function
      | Obs.Event.Temp_advance { temp; _ } ->
          temps := temp :: !temps;
          probes := 0 :: !probes
      | Obs.Event.Rejected _ -> (
          match !probes with n :: rest -> probes := (n + 1) :: rest | [] -> ())
      | _ -> ())
  in
  let s = { Line.x = 0; cost_fn = vee } in
  let r =
    walk ~observer Engine.Figure2 ~gfun:never_uphill2
      ~schedule:(Schedule.constant ~k:2 1.)
      ~budget:(Budget.Evaluations 452) (Rng.create ~seed:16) s
  in
  (* 452 ticks: the initial descent tests both neighbours, then 450
     probes. *)
  Alcotest.(check (list int)) "temperatures entered" [ 1; 2; 1; 2; 1 ] (List.rev !temps);
  Alcotest.(check (list int)) "probes per temperature" [ 100; 100; 100; 100; 50 ]
    (List.rev !probes);
  Alcotest.check Alcotest.int "highest temperature" 2
    r.Mc_problem.stats.Mc_problem.temperatures_visited

let test_f2_deterministic () =
  let run () =
    let s = { Line.x = 9; cost_fn = double_well } in
    (walk Engine.Figure2 ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1.5 |])
       ~budget:(Budget.Evaluations 500) (Rng.create ~seed:15) s)
      .Mc_problem.best_cost
  in
  Alcotest.check (Alcotest.float 0.) "identical runs" (run ()) (run ())

(* -------------------------- Rejectionless ------------------------ *)

let test_rl_descends () =
  let s = { Line.x = 6; cost_fn = vee } in
  let r =
    walk Engine.Rejectionless ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 100) (Rng.create ~seed:16) s
  in
  Alcotest.check (Alcotest.float 0.) "optimum found" 0. r.Mc_problem.best_cost

let test_rl_freezes_and_stops () =
  (* At the optimum with g = 0, no move has positive weight: the engine
     must advance through the schedule and stop, not spin. *)
  let s = { Line.x = 0; cost_fn = vee } in
  let r =
    walk Engine.Rejectionless ~gfun:never_uphill ~schedule:one_schedule
      ~budget:(Budget.Evaluations 100_000) (Rng.create ~seed:17) s
  in
  Alcotest.check Alcotest.bool "stops early when frozen" true
    (r.Mc_problem.stats.Mc_problem.evaluations < 100)

let test_rl_every_step_moves () =
  let s = { Line.x = 0; cost_fn = vee } in
  let r =
    walk Engine.Rejectionless ~gfun:Gfun.metropolis
      ~schedule:(Schedule.of_array [| 50. |])
      ~budget:(Budget.Evaluations 300) (Rng.create ~seed:18) s
  in
  let steps = r.Mc_problem.stats.Mc_problem.descents in
  (* each step scans the 2-move neighborhood, then moves *)
  Alcotest.check Alcotest.bool "roughly one step per two evaluations" true
    (steps >= 100 && steps <= 160)

let test_rl_temperatures_advance_on_share_ends () =
  (* Each step scans both neighbours of the walker, so steps end on even
     ticks; temperature [j + 1] is entered at the first step boundary
     at or past [Budget.share_end budget ~k j]. *)
  let budget = Budget.Evaluations 1001 in
  let observer, entries = entry_ticks () in
  let s = { Line.x = 0; cost_fn = vee } in
  ignore
    (walk ~observer Engine.Rejectionless ~gfun:Gfun.six_temp_annealing
       ~schedule:(Schedule.kirkpatrick ()) ~budget (Rng.create ~seed:19) s);
  let expected =
    List.init 6 (fun j ->
        let e = Budget.share_end budget ~k:6 j in
        (j + 1, e + (e mod 2)))
  in
  Alcotest.(check (list (pair int int))) "entry ticks" expected (entries ())

let test_rl_schedule_mismatch () =
  Alcotest.check_raises "names the class and its k"
    (Invalid_argument
       "Rejectionless.run: schedule length 1 but Six Temperature Annealing expects k = 6")
    (fun () ->
      ignore
        (walk Engine.Rejectionless ~gfun:Gfun.six_temp_annealing ~schedule:one_schedule
           ~budget:(Budget.Evaluations 1) (Rng.create ~seed:1) { Line.x = 0; cost_fn = vee }))

(* -------------------------- Temperature ------------------------- *)

let test_temperature_estimate () =
  let s = { Line.x = 0; cost_fn = vee } in
  let e = Temperature.estimate (module Line) (Rng.create ~seed:19) s in
  Alcotest.check Alcotest.bool "sigma positive" true (e.Temperature.sigma > 0.);
  Alcotest.check (Alcotest.float 1e-9) "unit deltas" 1. e.Temperature.mean_abs_delta;
  Alcotest.check (Alcotest.float 1e-9) "min uphill 1" 1. e.Temperature.min_uphill;
  Alcotest.check Alcotest.bool "hot >= cold" true
    (e.Temperature.suggested_y1 >= e.Temperature.suggested_yk)

let test_temperature_estimate_leaves_state () =
  let s = { Line.x = 5; cost_fn = vee } in
  ignore (Temperature.estimate (module Line) (Rng.create ~seed:20) s);
  Alcotest.check Alcotest.int "walks a copy, not the state" 5 s.Line.x

let test_suggest_schedule_shape () =
  let s = { Line.x = 0; cost_fn = vee } in
  let sch = Temperature.suggest_schedule (module Line) (Rng.create ~seed:21) s in
  Alcotest.check Alcotest.int "k = 6" 6 (Schedule.length sch);
  for i = 1 to 5 do
    Alcotest.check Alcotest.bool "decreasing" true (Schedule.get sch i >= Schedule.get sch (i + 1))
  done

(* Every problem's estimate bit for bit: the IEEE bits of the five
   fields of [estimate] and of the temperatures [suggest_schedule]
   picks, from one fixed start per problem, digested into one
   constant. *)
let test_temperature_pinned () =
  let b = Buffer.create 4096 in
  let bits x = Printf.bprintf b "%Lx;" (Int64.bits_of_float x) in
  let pin name problem start =
    let e = Temperature.estimate problem (Rng.create ~seed:31) start in
    Printf.bprintf b "\n%s|" name;
    List.iter bits
      Temperature.[ e.sigma; e.mean_abs_delta; e.min_uphill; e.suggested_y1; e.suggested_yk ];
    Buffer.add_char b '|';
    let s = Temperature.suggest_schedule problem (Rng.create ~seed:32) start in
    for i = 1 to Schedule.length s do
      bits (Schedule.get s i)
    done
  in
  let rng = Rng.create ~seed:30 in
  pin "linarr swap"
    (module Linarr_problem.Swap)
    (Arrangement.random rng (Netlist.random_gola rng ~elements:15 ~nets:60));
  pin "tsp" (module Tsp_problem) (Tour.random rng (Tsp_instance.random_uniform rng ~n:30));
  pin "partition"
    (module Partition_problem)
    (Bipartition.random_balanced rng (Netlist.random_gola rng ~elements:24 ~nets:60));
  let q = Qap.random_instance rng ~n:10 ~max_entry:9 in
  Qap.set_assignment q (Rng.permutation rng 10);
  pin "qap" (module Qap.Problem) q;
  pin "floorplan"
    (module Floorplan.Problem)
    (Floorplan.create (Array.init 8 (fun _ -> (Rng.int_range rng 2 9, Rng.int_range rng 2 9))));
  pin "wiring"
    (module Wiring.Problem)
    (Wiring.create ~width:6 ~height:6 (Wiring.random_instance rng ~width:6 ~height:6 ~nets:20));
  Alcotest.check Alcotest.string "digest of every problem's estimate"
    "27861534ea989f0489a9b5f3395979d2"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* -------------------------- Move contract ------------------------ *)

(* Engine runs under [Mc_problem.Contract], which re-verifies
   apply/revert pairing, bit-for-bit cost restoration, copy fidelity
   and side-effect-free enumeration at every call, across four problem
   domains.  A violation raises, so "the run completes" is the
   assertion; we also check the wrapper is semantically transparent. *)

module CLine = Mc_problem.Contract (Line)
module CTsp = Mc_problem.Contract (Tsp_problem)
module CQap = Mc_problem.Contract (Qap.Problem)
module CPart = Mc_problem.Contract (Partition_problem)
module CPlace = Mc_problem.Contract (Placement.Problem)
module CF1_line = Figure1.Make (CLine)
module CF1_tsp = Figure1.Make (CTsp)
module CF1_place = Figure1.Make (CPlace)

let test_contract_transparent () =
  (* Same seed, bare vs wrapped: the wrapper must not perturb the rng
     stream or the trajectory. *)
  let run_f1 run params state = (run (Rng.create ~seed:77) params state).Mc_problem.best_cost in
  let bare =
    let s = { Line.x = 12; cost_fn = double_well } in
    run_f1 F1.run
      (F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 2. |])
         ~budget:(Budget.Evaluations 500) ())
      s
  in
  let wrapped =
    let s = { Line.x = 12; cost_fn = double_well } in
    run_f1 CF1_line.run
      (CF1_line.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 2. |])
         ~budget:(Budget.Evaluations 500) ())
      s
  in
  Alcotest.check (Alcotest.float 0.) "same best cost" bare wrapped;
  Alcotest.check Alcotest.bool "checks ran" true (CLine.checks_performed () > 0)

let test_contract_tsp () =
  let rng = Rng.create ~seed:70 in
  let tour = Tour.random rng (Tsp_instance.random_uniform rng ~n:16) in
  let initial = CTsp.cost tour in
  let p =
    CF1_tsp.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.5 |])
      ~budget:(Budget.Evaluations 2000) ()
  in
  let r = CF1_tsp.run (Rng.create ~seed:71) p tour in
  Alcotest.check Alcotest.bool "improved under contract" true
    (r.Mc_problem.best_cost <= initial);
  Alcotest.check Alcotest.bool "contract checks ran" true
    (CTsp.checks_performed () > 2000)

let test_contract_qap () =
  (* Figure 2 descends through [moves], so this exercises the
     enumeration checks too. *)
  let qap = Qap.random_instance (Rng.create ~seed:72) ~n:8 ~max_entry:9 in
  let initial = CQap.cost qap in
  let r =
    Engine.or_raise
      (Engine.run (module CQap) Engine.Figure2 ~gfun:Gfun.metropolis
         ~schedule:(Schedule.of_array [| 10. |]) ~budget:(Budget.Evaluations 3000)
         (Rng.create ~seed:73) qap)
  in
  Alcotest.check Alcotest.bool "improved under contract" true
    (r.Mc_problem.best_cost <= initial);
  Alcotest.check Alcotest.bool "at least one descent" true
    (r.Mc_problem.stats.Mc_problem.descents >= 1);
  Qap.check qap

(* Two triangles joined by a bridge: optimal balanced cut = 1. *)
let two_triangles_nl () =
  Netlist.create ~n_elements:6
    ~pins:
      [|
        [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |];
        [| 3; 4 |]; [| 4; 5 |]; [| 3; 5 |];
        [| 2; 3 |];
      |]

let test_contract_partition () =
  let part = Bipartition.create (two_triangles_nl ()) in
  let initial = CPart.cost part in
  let r =
    Engine.or_raise
      (Engine.run (module CPart) Engine.Rejectionless ~gfun:Gfun.metropolis
         ~schedule:(Schedule.of_array [| 1. |]) ~budget:(Budget.Evaluations 500)
         (Rng.create ~seed:74) part)
  in
  Alcotest.check Alcotest.bool "improved under contract" true
    (r.Mc_problem.best_cost <= initial)

let test_contract_placement () =
  let rng = Rng.create ~seed:75 in
  let nl = Netlist.random_gola rng ~elements:12 ~nets:40 in
  let place = Placement.random rng ~rows:4 ~cols:4 nl in
  let initial = CPlace.cost place in
  let p =
    CF1_place.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 2. |])
      ~budget:(Budget.Evaluations 2000) ()
  in
  let r = CF1_place.run (Rng.create ~seed:76) p place in
  Alcotest.check Alcotest.bool "improved under contract" true
    (r.Mc_problem.best_cost <= initial);
  Placement.check place

(* The relocate and sum-of-cuts adapters have no delta record: the
   engines price their moves by [apply] and [cost], which run the
   arrangement's trial.  Each runs wrapped on all three engines, on a
   table-kernel (15 elements) and a span-kernel (30 elements) instance,
   and must end bit-identical to the bare run with the arrangement's
   incremental state intact. *)
module Linarr_contract (P : Mc_problem.S with type state = Arrangement.t) = struct
  module C = Mc_problem.Contract (P)

  let gfun = Gfun.metropolis
  let schedule = Schedule.of_array [| 0.5 |]
  let budget = Budget.Evaluations 1500

  let same msg nl ~bare ~wrapped =
    let run f =
      let state = Arrangement.random (Rng.create ~seed:78) nl in
      let (r : Arrangement.t Mc_problem.run) = f (Rng.create ~seed:79) state in
      Arrangement.check state;
      r
    in
    let b = run bare and w = run wrapped in
    let bits = Int64.bits_of_float in
    Alcotest.check Alcotest.int64 (msg ^ ": best_cost") (bits b.Mc_problem.best_cost)
      (bits w.Mc_problem.best_cost);
    Alcotest.check Alcotest.int64 (msg ^ ": final_cost") (bits b.Mc_problem.final_cost)
      (bits w.Mc_problem.final_cost);
    Alcotest.check Alcotest.bool (msg ^ ": stats") true (b.Mc_problem.stats = w.Mc_problem.stats)

  let engines name nl =
    List.iter
      (fun (engine, strategy) ->
        let run problem rng s =
          Engine.or_raise (Engine.run problem strategy ~gfun ~schedule ~budget rng s)
        in
        same (name ^ "/" ^ engine) nl ~bare:(run (module P)) ~wrapped:(run (module C)))
      [
        ("figure1", Engine.figure1 ());
        ("figure2", Engine.Figure2);
        ("rejectionless", Engine.Rejectionless);
      ]

  let test () =
    let before = C.checks_performed () in
    engines "gola15" (Netlist.random_gola (Rng.create ~seed:80) ~elements:15 ~nets:60);
    engines "nola30"
      (Netlist.random_nola (Rng.create ~seed:81) ~elements:30 ~nets:80 ~min_pins:2 ~max_pins:5);
    Alcotest.check Alcotest.bool "contract checks ran" true (C.checks_performed () > before)
end

module Relocate_contract = Linarr_contract (Linarr_problem.Relocate)
module Sum_cuts_contract = Linarr_contract (Linarr_problem.Swap_sum_cuts)

(* Deliberately broken problems: the sanitizer must catch each break. *)

module Broken_revert = struct
  type state = { mutable x : int }
  type move = int

  let cost s = float_of_int (abs s.x)
  let random_move rng _ = if Rng.bool rng then 1 else -1
  let apply s m = s.x <- s.x + m
  let revert s m = s.x <- s.x - m - 1 (* off by one: does not undo *)
  let copy s = { x = s.x }
  let moves _ = List.to_seq [ 1; -1 ]
end

module CBroken_revert = Mc_problem.Contract (Broken_revert)

module Mutating_moves = struct
  type state = { mutable x : int }
  type move = int

  let cost s = float_of_int (abs s.x)
  let random_move rng _ = if Rng.bool rng then 1 else -1
  let apply s m = s.x <- s.x + m
  let revert s m = s.x <- s.x - m

  let copy s = { x = s.x }

  let moves s =
    s.x <- s.x + 1;
    (* enumeration must not mutate *)
    List.to_seq [ 1; -1 ]
end

module CMutating_moves = Mc_problem.Contract (Mutating_moves)

let expect_violation name f =
  match f () with
  | exception Mc_problem.Contract_violation _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Contract_violation")

let test_contract_catches_bad_revert () =
  expect_violation "broken revert" (fun () ->
      let s = { Broken_revert.x = 2 } in
      let m = CBroken_revert.random_move (Rng.create ~seed:78) s in
      CBroken_revert.apply s m;
      CBroken_revert.revert s m)

let test_contract_catches_unpaired_revert () =
  expect_violation "revert without apply" (fun () ->
      CBroken_revert.revert { Broken_revert.x = 0 } 1)

let test_contract_catches_mutating_moves () =
  expect_violation "mutating moves" (fun () ->
      let (_ : int Seq.t) = CMutating_moves.moves { Mutating_moves.x = 0 } in
      ())

(* ------------------------- Best snapshots ------------------------ *)

(* The 2-opt adapter with every [copy] counted. *)
module Counting_tsp = struct
  include Tsp_problem

  let copies = ref 0

  let copy t =
    incr copies;
    Tsp_problem.copy t
end

module Count_f1 = Figure1.Make (Counting_tsp)

(* A Figure 1 walk copies a best only when it leaves it.  From the event
   stream, a best is left when the walk takes a move that does not beat
   it; the start state, which the books copy when they open, counts as
   left once the walk takes any move.  The result adds one copy. *)
let test_f1_copies_only_left_bests () =
  let rng = Rng.create ~seed:80 in
  let tour = Tour.random rng (Tsp_instance.random_uniform rng ~n:200) in
  let best = ref infinity and on_best = ref true and moved = ref false in
  let leaves = ref 0 and new_bests = ref 0 in
  let observer =
    Obs.Observer.of_fun (function
      | Obs.Event.Run_start { cost } -> best := cost
      | Obs.Event.Accepted { cost; _ } ->
          if not !moved then incr leaves
          else if !on_best && not (cost < !best) then incr leaves;
          moved := true;
          on_best := false
      | Obs.Event.New_best { cost; _ } ->
          incr new_bests;
          best := cost;
          on_best := true
      | _ -> ())
  in
  let p =
    Count_f1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 0.02 |])
      ~budget:(Budget.Evaluations 40_000) ()
  in
  Counting_tsp.copies := 0;
  let r =
    Count_f1.run ~observer ~delta_ops:Tsp_problem.delta_ops (Rng.create ~seed:81) p tour
  in
  let copies = !Counting_tsp.copies in
  if copies > !leaves + 1 then
    Alcotest.failf "%d copies for %d bests left (%d new bests)" copies !leaves !new_bests;
  (* The same walk as when every new best was copied. *)
  Alcotest.check Alcotest.int "new bests" 717 !new_bests;
  Alcotest.check Alcotest.int64 "best cost bits" 4624342171690310050L
    (Int64.bits_of_float r.Mc_problem.best_cost);
  let order = Array.to_list (Array.map string_of_int (Tour.order r.Mc_problem.best)) in
  Alcotest.check Alcotest.string "best tour" "417e4b14025dc531c37c72b4c42e2742"
    (Digest.to_hex (Digest.string (String.concat " " order)));
  Alcotest.check Alcotest.string "stats"
    {|{"evaluations":40000,"improving":816,"lateral_accepted":5,"uphill_accepted":280,"rejected":38899,"temperatures_visited":1,"descents":0}|}
    (Obs.Json.to_string (Mc_problem.stats_to_json r.Mc_problem.stats))

(* ----------------------- Arrangement integration ------------------ *)

module AF1 = Figure1.Make (Linarr_problem.Swap)

let paper_instance seed =
  let rng = Rng.create ~seed in
  let nl = Netlist.random_gola rng ~elements:15 ~nets:150 in
  (nl, Arrangement.random rng nl)

let test_integration_f1_reduces_density () =
  let _, arr = paper_instance 30 in
  let initial = Arrangement.density arr in
  let p = AF1.params ~gfun:Gfun.g_one ~schedule:one_schedule ~budget:(Budget.Evaluations 3000) () in
  let r = AF1.run (Rng.create ~seed:31) p arr in
  Alcotest.check Alcotest.bool "at least 15% reduction" true
    (r.Mc_problem.best_cost <= 0.85 *. float_of_int initial);
  Arrangement.check arr;
  Arrangement.check r.Mc_problem.best

let test_integration_best_cost_consistent () =
  let nl, arr = paper_instance 32 in
  let p = AF1.params ~gfun:Gfun.six_temp_annealing ~schedule:(Schedule.geometric ~y1:3. ~ratio:0.9 ~k:6)
      ~budget:(Budget.Evaluations 2000) () in
  let r = AF1.run (Rng.create ~seed:33) p arr in
  Alcotest.check Alcotest.int "best snapshot's density equals best_cost"
    (int_of_float r.Mc_problem.best_cost)
    (Arrangement.density_of_order nl (Arrangement.order r.Mc_problem.best))

let test_integration_f2_reduces_density () =
  let _, arr = paper_instance 34 in
  let initial = Arrangement.density arr in
  let r =
    Engine.or_raise
      (Engine.run (module Linarr_problem.Swap) Engine.Figure2 ~gfun:(Gfun.cohoon_sahni ~m:150)
         ~schedule:one_schedule ~budget:(Budget.Evaluations 3000) (Rng.create ~seed:35) arr)
  in
  Alcotest.check Alcotest.bool "reduces density" true
    (r.Mc_problem.best_cost < float_of_int initial);
  Arrangement.check arr

let test_integration_stats_add_up () =
  let _, arr = paper_instance 36 in
  let p = AF1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1. |])
      ~budget:(Budget.Evaluations 1000) () in
  let r = AF1.run (Rng.create ~seed:37) p arr in
  let s = r.Mc_problem.stats in
  Alcotest.check Alcotest.int "accepted + rejected = evaluations"
    s.Mc_problem.evaluations
    (s.Mc_problem.improving + s.Mc_problem.lateral_accepted + s.Mc_problem.uphill_accepted
   + s.Mc_problem.rejected)

(* Allocation guard for the paper's own walk: the 21 catalog classes
   under Figure 1 with pairwise interchange on both sample instances,
   through [Engine.run], recompute path, fixed seeds, as the ledger's
   `paper-cli` op walks them (`sa_lab run` walks the delta path).  The
   walks allocate 9.75 minor words per evaluation: the move tuple (3), the
   cost [P.cost] returns through the functor (2), and, on the 80% of
   evaluations that call g, [Gfun.eval]'s boxed [hi] and [hj] (3.2 per
   evaluation) and its boxed result (about 1.2: a constant result, as
   Two level g's or a plateau's infinity, allocates nothing); the
   Exponential classes' inner box, best copies and per-walk set-up make
   the rest.  They allocated 9.98 when the books held their costs boxed
   and g's [y] and the [u < g] draw were boxed at every call instead of
   [hi] and [hj], 27 when every library was compiled with -opaque (no
   call between modules inlined, every float crossing one boxed) and
   [Gfun.pow_int] boxed its accumulator, 23.5 with -opaque alone and
   13.6 with the boxed [pow_int] alone; the bound is 11.9.  Tier-1
   (`dune build && dune runtest`) is defined under the workspace's
   release profile (dune-workspace), which drops -opaque; dune's dev
   profile fails this check. *)
let read_sample name =
  let path =
    List.find_opt Sys.file_exists
      [ "../data/" ^ name; "data/" ^ name; "../../data/" ^ name; "../../../data/" ^ name ]
  in
  match path with
  | None -> Alcotest.failf "sample netlist %s not found" name
  | Some path -> (
      match Netlist.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok nl -> nl
      | Error e -> Alcotest.failf "%s: %s" path e)

let test_paper_walk_words () =
  let nets = List.map read_sample [ "gola15.net"; "nola15.net" ] in
  let evals = ref 0 in
  let before = Gc.minor_words () in
  List.iter
    (fun nl ->
      List.iter
        (fun gfun ->
          List.iter
            (fun seed ->
              let rng = Rng.create ~seed in
              let arr = Arrangement.random rng nl in
              let r =
                Engine.or_raise
                  (Engine.run (module Linarr_problem.Swap) (Engine.figure1 ()) ~gfun
                     ~schedule:(Gfun.schedule gfun 1.0) ~budget:(Budget.Evaluations 10_000) rng
                     arr)
              in
              evals := !evals + r.Mc_problem.stats.Mc_problem.evaluations)
            [ 1; 2 ])
        (Gfun.catalog ~m:(Netlist.n_nets nl)))
    nets;
  let per_eval = (Gc.minor_words () -. before) /. float_of_int !evals in
  if per_eval > 11.9 then
    Alcotest.failf "the paper walk allocates %.2f minor words per evaluation, over 11.9" per_eval

(* Allocation guard for the span kernel on the delta path: six-temperature
   Figure 1 with [Linarr_problem.Swap.delta_ops] on a NOLA instance of
   600 elements and 1500 nets of 3-6 pins, the `linarr-n600` ledger
   shape, for 3000 evaluations.  The walk allocates 11.8 minor words per
   evaluation.  It allocated 14.7 when each delta built the
   [(density, sum)] pair of [Arrangement.swap_delta] and dropped the
   sum, and 38.9 when each endpoint rescan of a touched net also
   returned the net's span as a pair, 7.8 rescans per trial at this
   size.  The bound is 13. *)
let test_span_delta_walk_words () =
  let rng = Rng.create ~seed:38 in
  let nl = Netlist.random_nola rng ~elements:600 ~nets:1500 ~min_pins:3 ~max_pins:6 in
  let arr = Arrangement.random rng nl in
  let gfun = Gfun.six_temp_annealing in
  let p =
    AF1.params ~gfun ~schedule:(Gfun.schedule gfun 1.0) ~budget:(Budget.Evaluations 3000) ()
  in
  let before = Gc.minor_words () in
  let r = AF1.run ~delta_ops:Linarr_problem.Swap.delta_ops (Rng.create ~seed:39) p arr in
  let per_eval =
    (Gc.minor_words () -. before) /. float_of_int r.Mc_problem.stats.Mc_problem.evaluations
  in
  Arrangement.check arr;
  if per_eval > 13. then
    Alcotest.failf "the span-kernel delta walk allocates %.2f minor words per evaluation, over 13"
      per_eval

(* Major-heap guard for the same walk over 30000 evaluations, as one
   `linarr-n600` ledger op runs it.  Each best the walk leaves is
   copied, and at this size the copy's arrays go straight to the major
   heap.  A copy holds only the order, and the walk allocates 3.7 major
   words per evaluation; it allocated 26.2 when a copy also held the
   positions, cuts and net spans.  The bound is 6. *)
let test_span_delta_walk_major_words () =
  let rng = Rng.create ~seed:38 in
  let nl = Netlist.random_nola rng ~elements:600 ~nets:1500 ~min_pins:3 ~max_pins:6 in
  let arr = Arrangement.random rng nl in
  let gfun = Gfun.six_temp_annealing in
  let p =
    AF1.params ~gfun ~schedule:(Gfun.schedule gfun 1.0) ~budget:(Budget.Evaluations 30_000) ()
  in
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  let before = major_words () in
  let r = AF1.run ~delta_ops:Linarr_problem.Swap.delta_ops (Rng.create ~seed:39) p arr in
  let per_eval =
    (major_words () -. before) /. float_of_int r.Mc_problem.stats.Mc_problem.evaluations
  in
  Arrangement.check arr;
  if per_eval > 6. then
    Alcotest.failf "the span-kernel delta walk allocates %.2f major words per evaluation, over 6"
      per_eval

(* Figure 2's core claim (the invariant behind the strategy): an
   uphill move is only ever taken from a local optimum, i.e. whenever
   [Descent_done] fires with budget left the full [moves] neighborhood
   holds nothing strictly better.  Probed from inside the observer —
   the callback is synchronous, so [state] IS the engine's current
   configuration at that instant.  A [Descent_done] emitted because
   the budget died mid-scan makes no such claim and is skipped. *)
let check_f2_local_optimum (type s m)
    (module P : Mc_problem.S with type state = s and type move = m) ~seed
    ~budget state =
  let probed = ref 0 in
  let observer =
    Obs.Observer.of_fun (function
      | Obs.Event.Descent_done { cost; evaluations } when evaluations < budget ->
          incr probed;
          Seq.iter
            (fun m ->
              P.apply state m;
              let c = P.cost state in
              P.revert state m;
              if c < cost -. 1e-9 then
                Alcotest.failf
                  "descent %d: neighbor at cost %g beats the local optimum %g"
                  !probed c cost)
            (P.moves state)
      | _ -> ())
  in
  ignore
    (Engine.or_raise
       (Engine.run (module P) ~observer Engine.Figure2 ~gfun:always_uphill
          ~schedule:one_schedule ~budget:(Budget.Evaluations budget) (Rng.create ~seed) state));
  Alcotest.check Alcotest.bool "probed at least one completed descent" true
    (!probed > 0)

let test_f2_local_optimum_tsp () =
  let rng = Rng.create ~seed:41 in
  let inst = Tsp_instance.random_uniform rng ~n:9 in
  check_f2_local_optimum
    (module Tsp_problem)
    ~seed:42 ~budget:3000 (Tour.random rng inst)

let test_f2_local_optimum_bipartition () =
  let rng = Rng.create ~seed:43 in
  let nl = Netlist.random_gola rng ~elements:10 ~nets:30 in
  check_f2_local_optimum
    (module Partition_problem)
    ~seed:44 ~budget:3000
    (Bipartition.random_balanced rng nl)

let prop_best_never_exceeds_initial =
  QCheck.Test.make ~name:"qcheck: Figure 1 best never exceeds the initial cost"
    QCheck.(triple int (int_range 0 200) (int_range 1 500))
    (fun (seed, start, budget) ->
      let s = { Line.x = start; cost_fn = double_well } in
      let initial = Line.cost s in
      let p =
        F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1.5 |])
          ~budget:(Budget.Evaluations budget) ()
      in
      let r = F1.run (Rng.create ~seed) p s in
      r.Mc_problem.best_cost <= initial
      && r.Mc_problem.best_cost <= r.Mc_problem.final_cost +. 1e-9)

let prop_stats_accounting =
  QCheck.Test.make ~name:"qcheck: Figure 1 stats partition the evaluations"
    QCheck.(pair int (int_range 1 400))
    (fun (seed, budget) ->
      let s = { Line.x = 25; cost_fn = vee } in
      let p =
        F1.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 2. |])
          ~budget:(Budget.Evaluations budget) ()
      in
      let r = F1.run (Rng.create ~seed) p s in
      let st = r.Mc_problem.stats in
      st.Mc_problem.evaluations
      = st.Mc_problem.improving + st.Mc_problem.lateral_accepted
        + st.Mc_problem.uphill_accepted + st.Mc_problem.rejected)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_best_never_exceeds_initial;
    QCheck_alcotest.to_alcotest prop_stats_accounting;
    case "figure1: budget respected exactly" test_f1_budget_respected;
    case "figure1: descends to the optimum" test_f1_descends_to_optimum;
    case "figure1: best never worse than initial" test_f1_best_never_worse_than_initial;
    case "figure1: uphill acceptance crosses barriers" test_f1_crosses_barrier_with_uphill;
    case "figure1: deferred-uphill rule" test_f1_defer_rule;
    case "figure1: defer threshold 1 accepts everything" test_f1_defer_threshold_1_always_climbs;
    case "figure1: lateral moves accepted" test_f1_lateral_moves_accepted;
    case "figure1: six temperatures visited" test_f1_temperatures_advance;
    case "figure1: temperatures advance on their share-end ticks"
      test_f1_temperatures_advance_on_share_ends;
    case "figure1: counter limit stops early" test_f1_counter_limit_stops_early;
    case "figure1: schedule length checked" test_f1_schedule_mismatch_rejected;
    case "figure1: deterministic" test_f1_deterministic;
    case "gfun: custom classes" test_gfun_custom;
    case "figure1: acceptance limit advances temperatures" test_f1_acceptance_limit_advances;
    case "figure1: acceptance limit validated" test_f1_acceptance_limit_validation;
    case "gfun: annealing at arbitrary k" test_annealing_k;
    case "traced: transparent to the engine" test_traced_transparent;
    case "traced: records every evaluation" test_traced_records_everything;
    case "traced: decimation bounds memory" test_traced_decimation;
    case "figure2: descends before uphill" test_f2_descends_before_uphill;
    case "figure2: re-descends after uphill" test_f2_redescends_after_uphill;
    case "figure2: restart consumes budget" test_f2_restart_consumes_budget;
    case "figure2: 100 probes per temperature, then temperature 1 again" test_f2_temperature_cycle;
    case "figure2: deterministic" test_f2_deterministic;
    case "figure2: uphill only from a TSP local optimum" test_f2_local_optimum_tsp;
    case "figure2: uphill only from a bipartition local optimum"
      test_f2_local_optimum_bipartition;
    case "rejectionless: descends" test_rl_descends;
    case "rejectionless: freezes and stops" test_rl_freezes_and_stops;
    case "rejectionless: every step moves" test_rl_every_step_moves;
    case "rejectionless: temperatures advance at the step ending their share"
      test_rl_temperatures_advance_on_share_ends;
    case "rejectionless: schedule length checked" test_rl_schedule_mismatch;
    case "temperature: estimate fields" test_temperature_estimate;
    case "temperature: estimate does not mutate" test_temperature_estimate_leaves_state;
    case "temperature: suggested schedule shape" test_suggest_schedule_shape;
    case "temperature: every problem's estimate pinned" test_temperature_pinned;
    case "contract: wrapper is transparent" test_contract_transparent;
    case "contract: TSP under Figure 1" test_contract_tsp;
    case "contract: QAP under Figure 2" test_contract_qap;
    case "contract: partition under rejectionless" test_contract_partition;
    case "contract: placement under Figure 1" test_contract_placement;
    case "contract: linarr relocate under all three engines" Relocate_contract.test;
    case "contract: linarr sum of cuts under all three engines" Sum_cuts_contract.test;
    case "contract: catches a broken revert" test_contract_catches_bad_revert;
    case "contract: catches an unpaired revert" test_contract_catches_unpaired_revert;
    case "contract: catches mutating enumeration" test_contract_catches_mutating_moves;
    case "integration: Figure 1 reduces density" test_integration_f1_reduces_density;
    case "integration: best snapshot consistent" test_integration_best_cost_consistent;
    case "integration: Figure 2 reduces density" test_integration_f2_reduces_density;
    case "integration: stats add up" test_integration_stats_add_up;
    case "figure1: a best is copied only when the walk leaves it"
      test_f1_copies_only_left_bests;
    case "figure1: the paper walk allocates at most 11.9 minor words per evaluation"
      test_paper_walk_words;
    case "figure1: the span-kernel delta walk allocates at most 13 minor words per evaluation"
      test_span_delta_walk_words;
    case "figure1: the span-kernel delta walk allocates at most 6 major words per evaluation"
      test_span_delta_walk_major_words;
  ]
