(* Bipartition state, Kernighan-Lin, and the partition SA adapter. *)

let case name f = Alcotest.test_case name `Quick f

(* Two triangles joined by one bridge edge: the optimal balanced
   bipartition separates the triangles, cut = 1. *)
let two_triangles () =
  Netlist.create ~n_elements:6
    ~pins:
      [|
        [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |]; (* triangle A *)
        [| 3; 4 |]; [| 4; 5 |]; [| 3; 5 |]; (* triangle B *)
        [| 2; 3 |]; (* bridge *)
      |]

let test_default_split () =
  let part = Bipartition.create (two_triangles ()) in
  (* first 3 on side A, last 3 on side B: only the bridge is cut *)
  Alcotest.check Alcotest.int "cut 1" 1 (Bipartition.cut part);
  Alcotest.check Alcotest.int "balanced" 0 (Bipartition.imbalance part);
  Alcotest.check Alcotest.int "3 on side B" 3 (Bipartition.size_b part)

let test_explicit_sides () =
  let sides = [| true; false; true; false; true; false |] in
  let part = Bipartition.create ~sides (two_triangles ()) in
  (* alternating split cuts every triangle edge + possibly the bridge:
     edges cut: 0-1 yes, 1-2 yes, 0-2 no, 3-4 yes, 4-5 yes, 3-5 no, 2-3 yes *)
  Alcotest.check Alcotest.int "cut" 5 (Bipartition.cut part);
  Alcotest.check Alcotest.bool "side of 0" true (Bipartition.side part 0);
  Alcotest.check Alcotest.bool "side of 1" false (Bipartition.side part 1)

let test_sides_length_checked () =
  match Bipartition.create ~sides:[| true |] (two_triangles ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_toggle_updates_cut () =
  let part = Bipartition.create (two_triangles ()) in
  Bipartition.toggle part 2;
  (* element 2 moves to side B: edges 0-2, 1-2 now cut; bridge 2-3 now
     internal *)
  Alcotest.check Alcotest.int "cut after toggle" 2 (Bipartition.cut part);
  Alcotest.check Alcotest.int "imbalance 2" 2 (Bipartition.imbalance part);
  Bipartition.check part;
  Bipartition.toggle part 2;
  Alcotest.check Alcotest.int "toggle is an involution" 1 (Bipartition.cut part);
  Bipartition.check part

let test_swap_preserves_balance () =
  let part = Bipartition.create (two_triangles ()) in
  Bipartition.swap part 2 3;
  Alcotest.check Alcotest.int "still balanced" 0 (Bipartition.imbalance part);
  Bipartition.check part;
  (* sides become {0,1,3} | {2,4,5}: edges 0-2, 1-2, 3-4, 3-5 and the
     bridge 2-3 are all cut *)
  Alcotest.check Alcotest.int "cut after swap" 5 (Bipartition.cut part)

let test_swap_same_side_noop () =
  let part = Bipartition.create (two_triangles ()) in
  let before = Bipartition.cut part in
  Bipartition.swap part 0 1;
  Alcotest.check Alcotest.int "no-op" before (Bipartition.cut part)

let test_random_balanced () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 20 do
    let nl = Netlist.random_gola (Rng.split rng) ~elements:10 ~nets:20 in
    let part = Bipartition.random_balanced (Rng.split rng) nl in
    Alcotest.check Alcotest.int "balanced" 0 (Bipartition.imbalance part);
    Bipartition.check part
  done

let test_random_balanced_odd () =
  let nl = Netlist.random_gola (Rng.create ~seed:2) ~elements:7 ~nets:10 in
  let part = Bipartition.random_balanced (Rng.create ~seed:3) nl in
  Alcotest.check Alcotest.int "odd imbalance 1" 1 (Bipartition.imbalance part)

let test_multi_pin_cut () =
  (* A 3-pin net is cut iff its pins straddle the sides. *)
  let nl = Netlist.create ~n_elements:4 ~pins:[| [| 0; 1; 2 |]; [| 1; 2; 3 |] |] in
  let part = Bipartition.create ~sides:[| false; false; false; true |] nl in
  Alcotest.check Alcotest.int "only the straddling net" 1 (Bipartition.cut part);
  Bipartition.toggle part 0;
  (* now {0,1,2} straddles too *)
  Alcotest.check Alcotest.int "both cut" 2 (Bipartition.cut part);
  Bipartition.check part

let test_copy_independent () =
  let part = Bipartition.create (two_triangles ()) in
  let snap = Bipartition.copy part in
  Bipartition.toggle part 0;
  Alcotest.check Alcotest.int "copy untouched" 1 (Bipartition.cut snap);
  Bipartition.check snap

(* ------------------------------- KL ------------------------------- *)

let test_kl_finds_triangle_split () =
  (* Start from the worst alternating split; KL must recover the
     natural partition with cut 1. *)
  let sides = [| true; false; true; false; true; false |] in
  let part = Bipartition.create ~sides (two_triangles ()) in
  let passes = Kl.refine part in
  Alcotest.check Alcotest.int "optimal cut" 1 (Bipartition.cut part);
  Alcotest.check Alcotest.bool "at least one pass" true (passes >= 1);
  Alcotest.check Alcotest.int "balance kept" 0 (Bipartition.imbalance part);
  Bipartition.check part

let test_kl_never_increases_cut () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 10 do
    let nl = Netlist.random_gola (Rng.split rng) ~elements:16 ~nets:40 in
    let part = Bipartition.random_balanced (Rng.split rng) nl in
    let before = Bipartition.cut part in
    ignore (Kl.refine part);
    Alcotest.check Alcotest.bool "cut <= initial" true (Bipartition.cut part <= before);
    Alcotest.check Alcotest.int "balance kept" 0 (Bipartition.imbalance part);
    Bipartition.check part
  done

let test_kl_idempotent_at_fixpoint () =
  let nl = Netlist.random_gola (Rng.create ~seed:5) ~elements:12 ~nets:30 in
  let part = Bipartition.random_balanced (Rng.create ~seed:6) nl in
  ignore (Kl.refine part);
  let cut = Bipartition.cut part in
  Alcotest.check Alcotest.int "second refine finds nothing" 0 (Kl.refine part);
  Alcotest.check Alcotest.int "cut unchanged" cut (Bipartition.cut part)

let test_kl_rejects_hypergraphs () =
  let nl = Netlist.create ~n_elements:4 ~pins:[| [| 0; 1; 2 |] |] in
  let part = Bipartition.create nl in
  match Kl.refine part with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for multi-pin nets"

let test_kl_run () =
  let nl = Netlist.random_gola (Rng.create ~seed:7) ~elements:20 ~nets:60 in
  let part = Kl.run (Rng.create ~seed:8) nl in
  Alcotest.check Alcotest.int "balanced" 0 (Bipartition.imbalance part);
  Bipartition.check part

(* ------------------------------- FM -------------------------------- *)

let test_fm_finds_triangle_split () =
  let sides = [| true; false; true; false; true; false |] in
  let part = Bipartition.create ~sides (two_triangles ()) in
  let passes = Fm.refine part in
  Alcotest.check Alcotest.int "optimal cut" 1 (Bipartition.cut part);
  Alcotest.check Alcotest.bool "at least one pass" true (passes >= 1);
  Alcotest.check Alcotest.bool "balance within bound" true (Bipartition.imbalance part <= 1);
  Bipartition.check part

let test_fm_never_increases_cut () =
  let rng = Rng.create ~seed:20 in
  for _ = 1 to 10 do
    let nl = Netlist.random_gola (Rng.split rng) ~elements:17 ~nets:40 in
    let part = Bipartition.random_balanced (Rng.split rng) nl in
    let before = Bipartition.cut part in
    ignore (Fm.refine part);
    Alcotest.check Alcotest.bool "cut <= initial" true (Bipartition.cut part <= before);
    Alcotest.check Alcotest.bool "imbalance <= 1" true (Bipartition.imbalance part <= 1);
    Bipartition.check part
  done

let test_fm_handles_hypergraphs () =
  (* Two 3-pin cliques-as-nets joined by one straddling net; FM must
     uncut everything but the bridge. *)
  let nl =
    Netlist.create ~n_elements:6 ~pins:[| [| 0; 1; 2 |]; [| 3; 4; 5 |]; [| 2; 3 |] |]
  in
  let sides = [| false; true; false; true; false; true |] in
  let part = Bipartition.create ~sides nl in
  Alcotest.check Alcotest.int "everything cut initially" 3 (Bipartition.cut part);
  ignore (Fm.refine part);
  Alcotest.check Alcotest.int "only the bridge remains" 1 (Bipartition.cut part);
  Bipartition.check part

let test_fm_idempotent () =
  let nl = Netlist.random_nola (Rng.create ~seed:21) ~elements:14 ~nets:30 ~min_pins:2 ~max_pins:4 in
  let part = Bipartition.random_balanced (Rng.create ~seed:22) nl in
  ignore (Fm.refine part);
  let cut = Bipartition.cut part in
  Alcotest.check Alcotest.int "no further passes" 0 (Fm.refine part);
  Alcotest.check Alcotest.int "cut unchanged" cut (Bipartition.cut part)

let test_fm_balance_bound_is_one () =
  (* The bound is one element, as tight as parity allows: an odd split
     one off balance is a valid start and stays within one; an even
     split one move off balance (imbalance 2) is refused; an even
     split ends exactly balanced. *)
  let odd = Netlist.random_gola (Rng.create ~seed:23) ~elements:21 ~nets:60 in
  let part = Bipartition.random_balanced (Rng.create ~seed:24) odd in
  Alcotest.check Alcotest.int "odd start one off" 1 (Bipartition.imbalance part);
  ignore (Fm.refine part);
  Alcotest.check Alcotest.int "odd end one off" 1 (Bipartition.imbalance part);
  let even = Netlist.random_gola (Rng.create ~seed:25) ~elements:20 ~nets:60 in
  let part = Bipartition.random_balanced (Rng.create ~seed:26) even in
  ignore (Fm.refine part);
  Alcotest.check Alcotest.int "even end balanced" 0 (Bipartition.imbalance part);
  let off = Bipartition.create ~sides:(Array.init 20 (fun e -> e >= 9)) even in
  Alcotest.check Alcotest.int "even start two off" 2 (Bipartition.imbalance off);
  match Fm.refine off with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "imbalance 2 accepted"

let test_fm_validation () =
  let nl = Netlist.random_gola (Rng.create ~seed:25) ~elements:8 ~nets:12 in
  let skewed = Bipartition.create ~sides:(Array.make 8 true) nl in
  match Fm.refine skewed with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "skewed start accepted"

let test_fm_matches_kl_on_graphs () =
  (* Both should land in the same quality region on random graphs. *)
  let rng = Rng.create ~seed:27 in
  let total_fm = ref 0 and total_kl = ref 0 in
  for _ = 1 to 8 do
    let nl = Netlist.random_gola (Rng.split rng) ~elements:24 ~nets:70 in
    let start = Bipartition.random_balanced (Rng.split rng) nl in
    let a = Bipartition.copy start and b = Bipartition.copy start in
    ignore (Fm.refine a);
    ignore (Kl.refine b);
    total_fm := !total_fm + Bipartition.cut a;
    total_kl := !total_kl + Bipartition.cut b
  done;
  Alcotest.check Alcotest.bool "within 30% of each other" true
    (float_of_int !total_fm <= 1.3 *. float_of_int !total_kl
    && float_of_int !total_kl <= 1.3 *. float_of_int !total_fm)

let prop_fm_cut_sound =
  QCheck.Test.make ~name:"qcheck: FM leaves a consistent, no-worse partition"
    (QCheck.make
       QCheck.Gen.(
         int_range 4 16 >>= fun elements ->
         int_range 1 30 >>= fun nets ->
         int >|= fun seed -> (elements, nets, seed)))
    (fun (elements, nets, seed) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_nola rng ~elements ~nets ~min_pins:2 ~max_pins:(min 4 elements) in
      let part = Bipartition.random_balanced rng nl in
      let before = Bipartition.cut part in
      ignore (Fm.refine part);
      Bipartition.check part;
      Bipartition.cut part <= before && Bipartition.imbalance part <= 1)

(* ------------------------------ k-way ----------------------------- *)

let test_kway_two_equals_bisection () =
  let nl = two_triangles () in
  let r = Kway.partition (Rng.create ~seed:30) nl ~k:2 in
  Alcotest.check Alcotest.int "k" 2 r.Kway.k;
  Alcotest.check Alcotest.int "triangle split found" 1 r.Kway.spanning_nets;
  Alcotest.check Alcotest.(array int) "balanced" [| 3; 3 |] (Kway.part_sizes r)

let test_kway_four_parts () =
  let nl = Netlist.random_gola (Rng.create ~seed:31) ~elements:32 ~nets:80 in
  let r = Kway.partition (Rng.create ~seed:32) nl ~k:4 in
  let sizes = Kway.part_sizes r in
  Alcotest.check Alcotest.int "4 parts" 4 (Array.length sizes);
  Array.iteri
    (fun p s -> Alcotest.check Alcotest.bool (Printf.sprintf "part %d near n/k" p) true (s >= 6 && s <= 10))
    sizes;
  Alcotest.check Alcotest.int "spanning count matches checker" r.Kway.spanning_nets
    (Kway.spanning_nets nl r.Kway.part_of);
  (* every element assigned a valid part *)
  Array.iter
    (fun p -> Alcotest.check Alcotest.bool "part id in range" true (p >= 0 && p < 4))
    r.Kway.part_of

let test_kway_equal_parts () =
  (* Every bisection of an even element set ends exactly balanced, so
     splitting 32 elements four ways gives four parts of 8. *)
  let nl = Netlist.random_nola (Rng.create ~seed:40) ~elements:32 ~nets:80 ~min_pins:2 ~max_pins:4 in
  let r = Kway.partition (Rng.create ~seed:41) nl ~k:4 in
  Alcotest.check Alcotest.(array int) "four parts of 8" [| 8; 8; 8; 8 |] (Kway.part_sizes r)

let test_kway_k1_and_kn () =
  let nl = Netlist.random_gola (Rng.create ~seed:33) ~elements:8 ~nets:16 in
  let r1 = Kway.partition (Rng.create ~seed:34) nl ~k:1 in
  Alcotest.check Alcotest.int "k=1 spans nothing" 0 r1.Kway.spanning_nets;
  let r8 = Kway.partition (Rng.create ~seed:35) nl ~k:8 in
  Alcotest.check Alcotest.(array int) "k=n singletons" (Array.make 8 1) (Kway.part_sizes r8);
  Alcotest.check Alcotest.int "every net spans" 16 r8.Kway.spanning_nets

let test_kway_more_parts_more_spanning () =
  let nl = Netlist.random_gola (Rng.create ~seed:36) ~elements:16 ~nets:48 in
  let r2 = Kway.partition (Rng.create ~seed:37) nl ~k:2 in
  let r4 = Kway.partition (Rng.create ~seed:37) nl ~k:4 in
  Alcotest.check Alcotest.bool "finer partition cannot span fewer nets" true
    (r4.Kway.spanning_nets >= r2.Kway.spanning_nets)

let test_kway_validation () =
  let nl = Netlist.random_gola (Rng.create ~seed:38) ~elements:6 ~nets:6 in
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Kway.partition (Rng.create ~seed:39) nl ~k:3);
  invalid (fun () -> Kway.partition (Rng.create ~seed:39) nl ~k:0);
  invalid (fun () -> Kway.partition (Rng.create ~seed:39) nl ~k:8)

let prop_kway_sound =
  QCheck.Test.make ~name:"qcheck: k-way partition is total, balanced-ish, and counted right"
    (QCheck.make
       QCheck.Gen.(
         int_range 0 2 >>= fun log_k ->
         int_range 8 20 >>= fun elements ->
         int_range 0 40 >>= fun nets ->
         int >|= fun seed -> (1 lsl log_k, elements, nets, seed)))
    (fun (k, elements, nets, seed) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_nola rng ~elements ~nets:(max 0 nets) ~min_pins:2
          ~max_pins:(min 4 elements) in
      let r = Kway.partition rng nl ~k in
      let sizes = Kway.part_sizes r in
      Array.for_all (fun s -> s > 0) sizes
      && Array.fold_left ( + ) 0 sizes = elements
      && r.Kway.spanning_nets = Kway.spanning_nets nl r.Kway.part_of)

(* ----------------------------- adapter ---------------------------- *)

let test_adapter_moves_cross_sides () =
  let part = Bipartition.create (two_triangles ()) in
  let moves = List.of_seq (Partition_problem.moves part) in
  Alcotest.check Alcotest.int "3 x 3 swaps" 9 (List.length moves);
  List.iter
    (fun (a, b) ->
      Alcotest.check Alcotest.bool "a on A, b on B" true
        ((not (Bipartition.side part a)) && Bipartition.side part b))
    moves

let test_adapter_roundtrip () =
  let rng = Rng.create ~seed:9 in
  let nl = Netlist.random_gola rng ~elements:10 ~nets:30 in
  let part = Bipartition.random_balanced rng nl in
  let before = Bipartition.cut part in
  for _ = 1 to 50 do
    let m = Partition_problem.random_move rng part in
    Partition_problem.apply part m;
    Partition_problem.revert part m
  done;
  Alcotest.check Alcotest.int "cut restored" before (Bipartition.cut part);
  Bipartition.check part

let test_adapter_random_move_valid () =
  let rng = Rng.create ~seed:10 in
  let nl = Netlist.random_gola rng ~elements:8 ~nets:16 in
  let part = Bipartition.random_balanced rng nl in
  for _ = 1 to 200 do
    let a, b = Partition_problem.random_move rng part in
    Alcotest.check Alcotest.bool "opposite sides, A first" true
      ((not (Bipartition.side part a)) && Bipartition.side part b)
  done

let test_sa_on_triangles_finds_optimum () =
  let sides = [| true; false; true; false; true; false |] in
  let part = Bipartition.create ~sides (two_triangles ()) in
  let module E = Figure1.Make (Partition_problem) in
  let p =
    E.params ~gfun:Gfun.metropolis ~schedule:(Schedule.of_array [| 1.5 |])
      ~budget:(Budget.Evaluations 2000) ()
  in
  let r = E.run (Rng.create ~seed:11) p part in
  Alcotest.check (Alcotest.float 0.) "optimal cut found" 1. r.Mc_problem.best_cost;
  Alcotest.check Alcotest.int "balance preserved" 0 (Bipartition.imbalance part)

let test_sa_vs_kl_shape () =
  (* The extension-table claim in miniature: with a sensible budget, SA
     and KL land in the same quality region (within 25% of each other)
     on a random graph. *)
  let nl = Netlist.random_gola (Rng.create ~seed:12) ~elements:30 ~nets:90 in
  let kl_part = Kl.run (Rng.create ~seed:13) nl in
  let sa_part = Bipartition.random_balanced (Rng.create ~seed:13) nl in
  let module E = Figure1.Make (Partition_problem) in
  let p =
    E.params ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
      ~budget:(Budget.Evaluations 20_000) ()
  in
  let r = E.run (Rng.create ~seed:14) p sa_part in
  let kl_cut = float_of_int (Bipartition.cut kl_part) in
  Alcotest.check Alcotest.bool "same quality region" true
    (r.Mc_problem.best_cost <= 1.25 *. kl_cut +. 2.)

let prop_cut_consistent_after_walk =
  QCheck.Test.make ~name:"qcheck: incremental cut matches recompute after random swaps"
    (QCheck.make
       QCheck.Gen.(
         int_range 4 14 >>= fun elements ->
         int_range 0 30 >>= fun nets ->
         int >|= fun seed -> (elements, nets, seed)))
    (fun (elements, nets, seed) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_gola rng ~elements ~nets in
      let part = Bipartition.random_balanced rng nl in
      for _ = 1 to 25 do
        let m = Partition_problem.random_move rng part in
        Partition_problem.apply part m
      done;
      match Bipartition.check part with () -> true | exception Failure _ -> false)

let suite =
  [
    case "default split" test_default_split;
    case "explicit sides" test_explicit_sides;
    case "sides length checked" test_sides_length_checked;
    case "toggle updates cut" test_toggle_updates_cut;
    case "swap preserves balance" test_swap_preserves_balance;
    case "same-side swap is a no-op" test_swap_same_side_noop;
    case "random balanced splits" test_random_balanced;
    case "odd element count" test_random_balanced_odd;
    case "multi-pin net cut" test_multi_pin_cut;
    case "copy is independent" test_copy_independent;
    case "KL recovers the triangle split" test_kl_finds_triangle_split;
    case "KL never increases the cut" test_kl_never_increases_cut;
    case "KL idempotent at a fixpoint" test_kl_idempotent_at_fixpoint;
    case "KL rejects hypergraphs" test_kl_rejects_hypergraphs;
    case "KL run from random start" test_kl_run;
    case "FM recovers the triangle split" test_fm_finds_triangle_split;
    case "FM never increases the cut" test_fm_never_increases_cut;
    case "FM handles hypergraphs" test_fm_handles_hypergraphs;
    case "FM idempotent at a fixpoint" test_fm_idempotent;
    case "FM balance bound is one element" test_fm_balance_bound_is_one;
    case "FM argument validation" test_fm_validation;
    case "FM and KL agree on graphs" test_fm_matches_kl_on_graphs;
    QCheck_alcotest.to_alcotest prop_fm_cut_sound;
    case "k-way: k=2 finds the triangle split" test_kway_two_equals_bisection;
    case "k-way: four balanced parts" test_kway_four_parts;
    case "k-way: even splits give equal parts" test_kway_equal_parts;
    case "k-way: k=1 and k=n extremes" test_kway_k1_and_kn;
    case "k-way: finer never spans fewer nets" test_kway_more_parts_more_spanning;
    case "k-way: validation" test_kway_validation;
    QCheck_alcotest.to_alcotest prop_kway_sound;
    case "adapter move enumeration" test_adapter_moves_cross_sides;
    case "adapter apply/revert roundtrip" test_adapter_roundtrip;
    case "adapter random moves valid" test_adapter_random_move_valid;
    case "SA finds the triangle optimum" test_sa_on_triangles_finds_optimum;
    case "SA and KL in the same quality region" test_sa_vs_kl_shape;
    QCheck_alcotest.to_alcotest prop_cut_consistent_after_walk;
  ]
