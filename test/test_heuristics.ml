(* Goto constructive heuristic, local search, and the Linarr_problem
   adapters. *)

let case name f = Alcotest.test_case name `Quick f

let path4 () =
  Netlist.create ~n_elements:4 ~pins:[| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] |]

let test_goto_path_is_optimal () =
  (* On a path graph the chain order has density 1, which is optimal. *)
  Alcotest.check Alcotest.int "density 1" 1 (Goto.density (path4 ()))

let test_goto_starts_with_lightest () =
  let nl =
    Netlist.create ~n_elements:4
      ~pins:[| [| 0; 1 |]; [| 0; 2 |]; [| 0; 3 |]; [| 1; 2 |] |]
  in
  (* degrees: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 1 *)
  let order = Goto.order nl in
  Alcotest.check Alcotest.int "element 3 first" 3 order.(0)

let test_goto_order_is_permutation () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10 do
    let nl = Netlist.random_nola rng ~elements:12 ~nets:50 ~min_pins:2 ~max_pins:4 in
    let order = Goto.order nl in
    let sorted = Array.copy order in
    Array.sort compare sorted;
    Alcotest.check Alcotest.(array int) "permutation" (Array.init 12 (fun i -> i)) sorted
  done

let test_goto_deterministic () =
  let nl = Netlist.random_gola (Rng.create ~seed:2) ~elements:10 ~nets:40 in
  Alcotest.check Alcotest.(array int) "same order twice" (Goto.order nl) (Goto.order nl)

let test_goto_beats_random_on_average () =
  (* The paper's observation: Goto is far better than a random start. *)
  let rng = Rng.create ~seed:3 in
  let better = ref 0 in
  for _ = 1 to 10 do
    let nl = Netlist.random_gola rng ~elements:15 ~nets:150 in
    let random_density = Arrangement.density (Arrangement.random rng nl) in
    if Goto.density nl < random_density then incr better
  done;
  Alcotest.check Alcotest.bool "Goto better on at least 9 of 10" true (!better >= 9)

let test_goto_empty_and_single () =
  let empty = Netlist.create ~n_elements:0 ~pins:[||] in
  Alcotest.check Alcotest.(array int) "empty" [||] (Goto.order empty);
  let single = Netlist.create ~n_elements:1 ~pins:[||] in
  Alcotest.check Alcotest.(array int) "single" [| 0 |] (Goto.order single)

let test_descent_reaches_local_optimum () =
  let rng = Rng.create ~seed:4 in
  let nl = Netlist.random_gola rng ~elements:10 ~nets:40 in
  let arr = Arrangement.random rng nl in
  let report = Local_search.pairwise_descent arr in
  Alcotest.check Alcotest.int "final density recorded" (Arrangement.density arr)
    report.Local_search.final_density;
  (* verify local optimality: no swap improves *)
  let d = Arrangement.density arr in
  for p = 0 to 8 do
    for q = p + 1 to 9 do
      Arrangement.swap_positions arr p q;
      Alcotest.check Alcotest.bool "no improving swap left" true (Arrangement.density arr >= d);
      Arrangement.swap_positions arr p q
    done
  done

let test_descent_on_optimal_is_noop () =
  let arr = Arrangement.create (path4 ()) in
  let r = Local_search.pairwise_descent arr in
  Alcotest.check Alcotest.int "no moves taken" 0 r.Local_search.moves_taken;
  Alcotest.check Alcotest.int "density unchanged" 1 r.Local_search.final_density

(* Apply, measure, revert: the descent [pairwise_descent] must reproduce
   move for move while pricing through [swap_delta]. *)
let reference_descent arr =
  let n = Arrangement.size arr in
  let taken = ref 0 and tested = ref 0 and improved = ref true in
  let swap_delta p q =
    let before = Arrangement.density arr in
    Arrangement.swap_positions arr p q;
    let d = Arrangement.density arr - before in
    Arrangement.swap_positions arr p q;
    d
  in
  while !improved do
    improved := false;
    try
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          incr tested;
          if swap_delta p q < 0 then begin
            Arrangement.swap_positions arr p q;
            incr taken;
            improved := true;
            raise Exit
          end
        done
      done
    with Exit -> ()
  done;
  (!taken, !tested, Arrangement.density arr)

let test_descent_matches_reference () =
  let rng = Rng.create ~seed:17 in
  for i = 1 to 6 do
    let nl =
      if i mod 2 = 0 then Netlist.random_gola (Rng.split rng) ~elements:12 ~nets:40
      else Netlist.random_nola (Rng.split rng) ~elements:12 ~nets:25 ~min_pins:2 ~max_pins:5
    in
    let a = Arrangement.random (Rng.split rng) nl in
    let b = Arrangement.copy a in
    let r = Local_search.pairwise_descent a in
    Alcotest.(check (triple int int int))
      "taken, tested, final density" (reference_descent b)
      (r.Local_search.moves_taken, r.Local_search.moves_tested,
       r.Local_search.final_density);
    Alcotest.(check (array int)) "same local optimum" (Arrangement.order b)
      (Arrangement.order a)
  done

(* ---------------------- Linarr_problem adapters ------------------- *)

let test_swap_adapter_roundtrip () =
  let rng = Rng.create ~seed:8 in
  let nl = Netlist.random_gola rng ~elements:8 ~nets:20 in
  let arr = Arrangement.random rng nl in
  let before = Arrangement.order arr in
  for _ = 1 to 50 do
    let m = Linarr_problem.Swap.random_move rng arr in
    Linarr_problem.Swap.apply arr m;
    Linarr_problem.Swap.revert arr m
  done;
  Alcotest.check Alcotest.(array int) "apply/revert restores" before (Arrangement.order arr);
  Arrangement.check arr

let test_swap_adapter_cost () =
  let rng = Rng.create ~seed:9 in
  let nl = Netlist.random_gola rng ~elements:8 ~nets:20 in
  let arr = Arrangement.random rng nl in
  Alcotest.check (Alcotest.float 0.) "cost = density"
    (float_of_int (Arrangement.density arr))
    (Linarr_problem.Swap.cost arr)

let test_swap_moves_enumeration () =
  let rng = Rng.create ~seed:10 in
  let nl = Netlist.random_gola rng ~elements:6 ~nets:10 in
  let arr = Arrangement.random rng nl in
  let moves = List.of_seq (Linarr_problem.Swap.moves arr) in
  Alcotest.check Alcotest.int "6 choose 2" 15 (List.length moves);
  let uniq = List.sort_uniq compare moves in
  Alcotest.check Alcotest.int "all distinct" 15 (List.length uniq);
  List.iter
    (fun (p, q) ->
      Alcotest.check Alcotest.bool "ordered and in range" true (0 <= p && p < q && q < 6))
    moves

let test_swap_moves_match_unranking () =
  (* Regression for [Mc_problem.pairs], the enumerator of every swap
     adapter (linarr, QAP, placement, TSP 2-opt): the sequence must
     equal the old O(n)-per-element unranked enumeration element for
     element, for a sweep of sizes including 0 and 1. *)
  let unranked n =
    let pair_of idx =
      let rec find p remaining =
        let row = n - 1 - p in
        if remaining < row then (p, p + 1 + remaining)
        else find (p + 1) (remaining - row)
      in
      find 0 idx
    in
    List.init (n * (n - 1) / 2) pair_of
  in
  List.iter
    (fun n ->
      let nl = Netlist.create ~n_elements:n ~pins:[||] in
      let arr = Arrangement.create nl in
      Alcotest.check
        Alcotest.(list (pair int int))
        (Printf.sprintf "n = %d" n) (unranked n)
        (List.of_seq (Linarr_problem.Swap.moves arr)))
    [ 0; 1; 2; 3; 7; 12; 31 ]

let test_relocate_adapter_roundtrip () =
  let rng = Rng.create ~seed:11 in
  let nl = Netlist.random_nola rng ~elements:9 ~nets:25 ~min_pins:2 ~max_pins:4 in
  let arr = Arrangement.random rng nl in
  let before = Arrangement.order arr in
  for _ = 1 to 30 do
    let m = Linarr_problem.Relocate.random_move rng arr in
    Linarr_problem.Relocate.apply arr m;
    Linarr_problem.Relocate.revert arr m
  done;
  Alcotest.check Alcotest.(array int) "apply/revert restores" before (Arrangement.order arr);
  Arrangement.check arr

let test_relocate_moves_enumeration () =
  let rng = Rng.create ~seed:12 in
  let nl = Netlist.random_gola rng ~elements:5 ~nets:8 in
  let arr = Arrangement.random rng nl in
  let moves = List.of_seq (Linarr_problem.Relocate.moves arr) in
  Alcotest.check Alcotest.int "n(n-1) relocations" 20 (List.length moves)

let test_sum_cuts_adapter () =
  let rng = Rng.create ~seed:13 in
  let nl = Netlist.random_gola rng ~elements:8 ~nets:20 in
  let arr = Arrangement.random rng nl in
  Alcotest.check (Alcotest.float 0.) "cost = sum of cuts"
    (float_of_int (Arrangement.sum_of_cuts arr))
    (Linarr_problem.Swap_sum_cuts.cost arr)

(* --------------------------- exact solver ------------------------- *)

let test_exact_path () =
  let d, order = Linarr_exact.optimum (path4 ()) in
  Alcotest.check Alcotest.int "path optimum 1" 1 d;
  Alcotest.check Alcotest.int "order achieves it" 1
    (Arrangement.density_of_order (path4 ()) order)

let test_exact_parallel_nets () =
  (* All nets between the same pair: density = net count whatever the
     order. *)
  let nl = Netlist.create ~n_elements:3 ~pins:[| [| 0; 1 |]; [| 0; 1 |] |] in
  Alcotest.check Alcotest.int "forced density" 2 (Linarr_exact.optimal_density nl)

let test_exact_star () =
  (* Star K_{1,4}: the centre has 4 incident edges; any order splits
     them across the centre's two sides, so density = ceil(4/2) = 2
     with the centre in the middle. *)
  let nl =
    Netlist.create ~n_elements:5 ~pins:[| [| 0; 1 |]; [| 0; 2 |]; [| 0; 3 |]; [| 0; 4 |] |]
  in
  Alcotest.check Alcotest.int "star optimum" 2 (Linarr_exact.optimal_density nl)

let test_exact_limit () =
  (* The cut table's bound: 21 elements are refused, 20 are solved. *)
  let nl = Netlist.random_gola (Rng.create ~seed:50) ~elements:21 ~nets:30 in
  (match Linarr_exact.optimum nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "21 elements accepted");
  let nl =
    Netlist.random_nola (Rng.create ~seed:50) ~elements:20 ~nets:40 ~min_pins:2 ~max_pins:5
  in
  let d, order = Linarr_exact.optimum nl in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "order is a permutation" (Array.init 20 Fun.id) sorted;
  Alcotest.check Alcotest.int "order reaches the density" d
    (Arrangement.density_of_order nl order);
  Alcotest.check Alcotest.bool "Goto >= optimum" true (Goto.density nl >= d)

let test_exact_matches_exhaustive_density () =
  (* Cross-check the subset DP against plain enumeration, on GOLA and
     NOLA inputs of every size from 1 to 8 elements. *)
  let rng = Rng.create ~seed:51 in
  let exhaustive nl =
    let best = ref max_int in
    let rec permutations prefix remaining =
      match remaining with
      | [] ->
          let d = Arrangement.density_of_order nl (Array.of_list (List.rev prefix)) in
          if d < !best then best := d
      | _ ->
          List.iter
            (fun e ->
              permutations (e :: prefix) (List.filter (fun x -> x <> e) remaining))
            remaining
    in
    permutations [] (List.init (Netlist.n_elements nl) Fun.id);
    !best
  in
  let check label nl =
    let d, order = Linarr_exact.optimum nl in
    Alcotest.check Alcotest.int (label ^ ": matches exhaustive") (exhaustive nl) d;
    Alcotest.check Alcotest.int (label ^ ": order reaches it") d
      (Arrangement.density_of_order nl order)
  in
  check "n=1" (Netlist.create ~n_elements:1 ~pins:[||]);
  for n = 2 to 8 do
    check (Printf.sprintf "GOLA n=%d" n)
      (Netlist.random_gola (Rng.split rng) ~elements:n ~nets:(2 * n));
    check (Printf.sprintf "NOLA n=%d" n)
      (Netlist.random_nola (Rng.split rng) ~elements:n ~nets:(2 * n) ~min_pins:2
         ~max_pins:(min 4 n))
  done


(* Every engine, on the recompute path and on [Swap.delta_ops], ends at
   or above the exact optimum, and the best cost it reports is the
   density of the best arrangement it returns, recomputed from its
   order. *)
let check_engines_against_exact label nl exact =
  let gfun = Gfun.six_temp_annealing in
  let schedule = Gfun.schedule gfun 1. and budget = Budget.Evaluations 2_000 in
  let check name (r : Arrangement.t Mc_problem.run) =
    let what = Printf.sprintf "%s, %s" label name in
    Alcotest.check Alcotest.bool (what ^ " >= optimum") true
      (r.Mc_problem.best_cost >= float_of_int exact);
    Alcotest.check (Alcotest.float 0.) (what ^ ": best_cost is the best's density")
      (float_of_int (Arrangement.density_of_order nl (Arrangement.order r.Mc_problem.best)))
      r.Mc_problem.best_cost
  in
  List.iter
    (fun (path, delta_ops) ->
      List.iter
        (fun (engine, strategy) ->
          check (engine ^ " " ^ path)
            (Engine.or_raise
               (Engine.run (module Linarr_problem.Swap) ?delta_ops strategy ~gfun ~schedule
                  ~budget (Rng.create ~seed:2) (Arrangement.random (Rng.create ~seed:1) nl))))
        [
          ("figure1", Engine.figure1 ());
          ("figure2", Engine.Figure2);
          ("rejectionless", Engine.Rejectionless);
        ])
    [ ("recompute", None); ("delta", Some Linarr_problem.Swap.delta_ops) ]

let test_no_heuristic_beats_exact () =
  let rng = Rng.create ~seed:52 in
  for i = 1 to 5 do
    let nl = Netlist.random_nola (Rng.split rng) ~elements:7 ~nets:15 ~min_pins:2 ~max_pins:4 in
    let exact = Linarr_exact.optimal_density nl in
    Alcotest.check Alcotest.bool "Goto >= optimum" true (Goto.density nl >= exact);
    let arr = Arrangement.random (Rng.split rng) nl in
    let r = Local_search.pairwise_descent arr in
    Alcotest.check Alcotest.bool "descent >= optimum" true
      (r.Local_search.final_density >= exact);
    check_engines_against_exact (Printf.sprintf "NOLA %d" i) nl exact
  done;
  let rng = Rng.create ~seed:53 in
  for i = 1 to 5 do
    let nl = Netlist.random_gola (Rng.split rng) ~elements:8 ~nets:20 in
    check_engines_against_exact (Printf.sprintf "GOLA %d" i) nl
      (Linarr_exact.optimal_density nl)
  done;
  (* The paper's own suites, n = 15. *)
  List.iter
    (fun (name, (suite : Suites.linarr_suite)) ->
      Array.iteri
        (fun i nl ->
          let exact = Linarr_exact.optimal_density nl in
          let label = Printf.sprintf "%s suite %d" name i in
          Alcotest.check Alcotest.bool (label ^ ": Goto >= optimum") true
            (Goto.density nl >= exact);
          check_engines_against_exact label nl exact)
        suite.Suites.netlists)
    [ ("GOLA", Suites.gola ()); ("NOLA", Suites.nola ()) ]

let prop_goto_never_worse_than_worst =
  QCheck.Test.make ~name:"qcheck: Goto density within [best possible, netlist nets]"
    (QCheck.make
       QCheck.Gen.(
         int_range 3 10 >>= fun elements ->
         int_range 1 30 >>= fun nets ->
         int >|= fun seed -> (elements, nets, seed)))
    (fun (elements, nets, seed) ->
      let nl = Netlist.random_gola (Rng.create ~seed) ~elements ~nets in
      let d = Goto.density nl in
      d >= 0 && d <= nets)

let prop_descent_never_increases =
  QCheck.Test.make ~name:"qcheck: pairwise descent never increases density"
    (QCheck.make
       QCheck.Gen.(
         int_range 3 10 >>= fun elements ->
         int_range 1 25 >>= fun nets ->
         int >|= fun seed -> (elements, nets, seed)))
    (fun (elements, nets, seed) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_gola rng ~elements ~nets in
      let arr = Arrangement.random rng nl in
      let before = Arrangement.density arr in
      let r = Local_search.pairwise_descent arr in
      r.Local_search.final_density <= before)

let suite =
  [
    case "goto: optimal on a path" test_goto_path_is_optimal;
    case "goto: starts with the lightest element" test_goto_starts_with_lightest;
    case "goto: produces a permutation" test_goto_order_is_permutation;
    case "goto: deterministic" test_goto_deterministic;
    case "goto: beats random starts" test_goto_beats_random_on_average;
    case "goto: empty and single-element netlists" test_goto_empty_and_single;
    case "descent: reaches a pairwise local optimum" test_descent_reaches_local_optimum;
    case "descent: no-op at an optimum" test_descent_on_optimal_is_noop;
    case "descent: same moves as apply-measure-revert" test_descent_matches_reference;
    case "swap adapter: apply/revert roundtrip" test_swap_adapter_roundtrip;
    case "swap adapter: cost is density" test_swap_adapter_cost;
    case "swap adapter: move enumeration" test_swap_moves_enumeration;
    case "swap adapter: unfold enumeration matches old unranking"
      test_swap_moves_match_unranking;
    case "relocate adapter: apply/revert roundtrip" test_relocate_adapter_roundtrip;
    case "relocate adapter: move enumeration" test_relocate_moves_enumeration;
    case "sum-of-cuts adapter cost" test_sum_cuts_adapter;
    case "exact: path optimum" test_exact_path;
    case "exact: forced parallel nets" test_exact_parallel_nets;
    case "exact: star graph" test_exact_star;
    case "exact: element limit enforced" test_exact_limit;
    case "exact: matches plain enumeration" test_exact_matches_exhaustive_density;
    case "exact: no heuristic beats it" test_no_heuristic_beats_exact;
    QCheck_alcotest.to_alcotest prop_goto_never_worse_than_worst;
    QCheck_alcotest.to_alcotest prop_descent_never_increases;
  ]
