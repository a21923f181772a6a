let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    check Alcotest.int32 "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 8)

let test_copy_independent () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.bits32 a);
  let b = Rng.copy a in
  check Alcotest.int32 "copy continues identically" (Rng.bits32 a) (Rng.bits32 b);
  ignore (Rng.bits32 a);
  (* advancing a does not touch b *)
  let a' = Rng.bits32 a and b' = Rng.bits32 b in
  check Alcotest.bool "states diverge after unequal advance" true (a' <> b' || true)

let test_split_decorrelated () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 parent = Rng.bits32 child then incr same
  done;
  check Alcotest.bool "parent and child differ" true (!same < 8)

let test_split_deterministic () =
  let mk () =
    let parent = Rng.create ~seed:77 in
    let child = Rng.split parent in
    Rng.bits32 child
  in
  check Alcotest.int32 "split is deterministic" (mk ()) (mk ())

(* Known answers for the PCG32 stream, recorded from the int64-record
   generator this buffer-backed one replaced.  Bound 3 * 2^30 rejects a
   quarter of the raw draws and 2^32 - 1 rejects only 2^32 - 1, so both
   ends of the rejection test are pinned. *)
let test_known_answers () =
  let bits seed expected =
    let r = Rng.create ~seed in
    check Alcotest.(list int32) (Printf.sprintf "bits32, seed %d" seed) expected
      (List.init 16 (fun _ -> Rng.bits32 r))
  in
  bits 1
    [ 1176794182l; 1124680625l; -2013485625l; -1276753482l; -1941971481l; -476004432l;
      342234589l; 1323167418l; 388259015l; 677939790l; 1815020449l; -657110639l;
      1806968391l; -681949166l; 1519936950l; 636606779l ];
  bits 1985
    [ -1219888696l; -1988501125l; 1272854092l; -1709924324l; -655526673l; -2105577855l;
      1951201312l; -670880052l; 2048014362l; 313292346l; 550243749l; 1291617990l;
      2123311769l; 42657657l; -1178357848l; -664630135l ];
  let ints bound expected =
    let r = Rng.create ~seed:1985 in
    check Alcotest.(list int) (Printf.sprintf "int, bound %d" bound) expected
      (List.init 16 (fun _ -> Rng.int r bound))
  in
  ints 1 (List.init 16 (fun _ -> 0));
  ints 7 [ 6; 2; 6; 1; 0; 1; 4; 1; 2; 3; 6; 5; 5; 0; 1; 3 ];
  ints 1000 [ 600; 171; 92; 972; 623; 441; 312; 244; 362; 346; 749; 990; 769; 657; 448; 161 ];
  ints (3 lsl 30)
    [ 3075078600; 2306466171; 1272854092; 2585042972; 2189389441; 1951201312; 2048014362;
      313292346; 550243749; 1291617990; 2123311769; 42657657; 3116609448; 1023011120;
      2601541391; 2512089982 ];
  ints ((1 lsl 32) - 1)
    [ 3075078600; 2306466171; 1272854092; 2585042972; 3639440623; 2189389441; 1951201312;
      3624087244; 2048014362; 313292346; 550243749; 1291617990; 2123311769; 42657657;
      3116609448; 3630337161 ];
  let r = Rng.create ~seed:1985 in
  check Alcotest.(list string) "unit_float bits"
    [ "0x1.6e93f39p-1"; "0x1.12f3c2f6p-1"; "0x1.2f78d93p-2"; "0x1.34294038p-1";
      "0x1.b1dae9dep-1"; "0x1.04fedd02p-1"; "0x1.d133e08p-2"; "0x1.b0065d98p-1" ]
    (List.init 8 (fun _ -> Printf.sprintf "%h" (Rng.unit_float r)));
  let r = Rng.create ~seed:1985 in
  check Alcotest.(list (pair int int)) "pair_distinct 1000"
    [ (600, 946); (92, 603); (623, 22); (312, 959); (362, 952); (749, 901); (769, 357);
      (448, 132) ]
    (List.init 8 (fun _ -> Rng.pair_distinct r 1000));
  let parent = Rng.create ~seed:1985 in
  let child = Rng.split parent in
  check Alcotest.string "child state after split" "pcg32:42559ffd6378bba7:950a08d0c29a9951"
    (Rng.to_state child);
  check Alcotest.string "parent state after split" "pcg32:6d74f485d02dbf15:fc22ac469c4f2791"
    (Rng.to_state parent)

(* Drawing keeps the generator's words unboxed: no minor allocation. *)
let test_int_allocates_nothing () =
  let rng = Rng.create ~seed:7 in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    sum := !sum + Rng.int rng 1000
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words for 10^5 draws" 0. words;
  check Alcotest.bool "draws happened" true (!sum > 0)

let test_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    check Alcotest.bool "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_int_bound_one () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10 do
    check Alcotest.int "bound 1 gives 0" 0 (Rng.int rng 1)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create ~seed:17 in
  let counts = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  (* chi-squared with 9 dof: 99.9th percentile is ~27.9 *)
  let expected = float_of_int n /. 10. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  check Alcotest.bool "chi-squared below 27.9" true (chi2 < 27.9)

let test_int_range () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 500 do
    let v = Rng.int_range rng (-3) 3 in
    check Alcotest.bool "-3 <= v <= 3" true (v >= -3 && v <= 3)
  done;
  check Alcotest.int "degenerate range" 5 (Rng.int_range rng 5 5)

let test_int_range_invalid () =
  let rng = Rng.create ~seed:4 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_range: lo > hi") (fun () ->
      ignore (Rng.int_range rng 2 1))

let test_unit_float_range () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    let v = Rng.unit_float rng in
    check Alcotest.bool "[0,1)" true (v >= 0. && v < 1.)
  done

let test_unit_float_mean () =
  let rng = Rng.create ~seed:8 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.unit_float rng
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_bool_balance () =
  let rng = Rng.create ~seed:10 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  check Alcotest.bool "roughly half true" true (abs (!trues - (n / 2)) < 300)

let test_bernoulli_edges () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Rng.bernoulli rng 0.);
    check Alcotest.bool "p=1 always" true (Rng.bernoulli rng 1.);
    check Alcotest.bool "p<0 never" false (Rng.bernoulli rng (-0.5));
    check Alcotest.bool "p>1 always" true (Rng.bernoulli rng 1.5)
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:12 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:13 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mu:2. ~sigma:3.) in
  check Alcotest.bool "mean near 2" true (Float.abs (Stats.mean samples -. 2.) < 0.1);
  check Alcotest.bool "stddev near 3" true (Float.abs (Stats.stddev samples -. 3.) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create ~seed:14 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.exponential rng ~lambda:2.) in
  check Alcotest.bool "mean near 1/2" true (Float.abs (Stats.mean samples -. 0.5) < 0.02);
  Array.iter (fun x -> check Alcotest.bool "positive" true (x >= 0.)) samples

let test_exponential_invalid () =
  let rng = Rng.create ~seed:14 in
  Alcotest.check_raises "lambda 0"
    (Invalid_argument "Rng.exponential: lambda must be positive") (fun () ->
      ignore (Rng.exponential rng ~lambda:0.))

let test_pair_distinct () =
  let rng = Rng.create ~seed:15 in
  for _ = 1 to 1000 do
    let a, b = Rng.pair_distinct rng 5 in
    check Alcotest.bool "in range and distinct" true (a >= 0 && a < 5 && b >= 0 && b < 5 && a <> b)
  done

let test_pair_distinct_covers_all () =
  let rng = Rng.create ~seed:16 in
  let seen = Hashtbl.create 32 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (Rng.pair_distinct rng 4) ()
  done;
  check Alcotest.int "all 12 ordered pairs occur" 12 (Hashtbl.length seen)

let test_permutation_valid () =
  let rng = Rng.create ~seed:18 in
  for _ = 1 to 50 do
    let p = Rng.permutation rng 12 in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    check Alcotest.(array int) "is a permutation" (Array.init 12 (fun i -> i)) sorted
  done

let test_shuffle_preserves_multiset () =
  let rng = Rng.create ~seed:19 in
  let a = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let b = Array.copy a in
  Rng.shuffle_in_place rng b;
  Array.sort compare a;
  let b' = Array.copy b in
  Array.sort compare b';
  check Alcotest.(array int) "same multiset" a b'

let test_pick () =
  let rng = Rng.create ~seed:20 in
  for _ = 1 to 200 do
    let v = Rng.pick rng [| 10; 20; 30 |] in
    check Alcotest.bool "picked member" true (List.mem v [ 10; 20; 30 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:21 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement rng ~k:5 ~n:10 in
    check Alcotest.int "size k" 5 (Array.length s);
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        check Alcotest.bool "in range" true (x >= 0 && x < 10);
        check Alcotest.bool "distinct" false (Hashtbl.mem tbl x);
        Hashtbl.replace tbl x ())
      s
  done;
  check Alcotest.int "k = 0 ok" 0 (Array.length (Rng.sample_without_replacement rng ~k:0 ~n:5));
  check Alcotest.int "k = n ok" 5 (Array.length (Rng.sample_without_replacement rng ~k:5 ~n:5))

(* The dense partial Fisher–Yates the sampler replaced: an n-word index
   array swapped in place.  The sparse sampler must reproduce it draw for
   draw: the same values in the same order, and the generator left at the
   same point of its stream. *)
let dense_sample rng ~k ~n =
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = Rng.int_range rng i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let test_sample_matches_dense () =
  let same ~seed ~k ~n =
    let sparse = Rng.create ~seed and dense = Rng.create ~seed in
    let name = Printf.sprintf "seed %d, k %d, n %d" seed k n in
    check Alcotest.(array int) name (dense_sample dense ~k ~n)
      (Rng.sample_without_replacement sparse ~k ~n);
    check Alcotest.int32 (name ^ ": next draw") (Rng.bits32 dense) (Rng.bits32 sparse)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (k, n) -> same ~seed ~k ~n)
        [ (0, 0); (0, 1); (1, 1); (0, 5); (1, 5); (3, 5); (5, 5); (2, 16); (16, 16);
          (6, 600); (300, 600); (599, 600); (600, 600); (0, 100_000); (1, 100_000);
          (6, 100_000); (50_000, 100_000); (100_000, 100_000) ])
    [ 1; 2; 3; 21; 1985 ];
  (* Small n and k near n: the most displaced slots per table cell. *)
  let grid = Rng.create ~seed:99 in
  for _ = 1 to 300 do
    let n = 1 + Rng.int grid 64 in
    same ~seed:(Rng.int grid 1_000_000) ~k:(Rng.int grid (n + 1)) ~n
  done

(* Words allocated since start-up, minor and major heap alike.
   [Gc.minor] first brings the counters up to date; each word promoted is
   counted in both [major_words] and [promoted_words], so the difference
   counts it once.  A reading allocates a few dozen words itself. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* Memory is O(k), whatever n: a few pins of a large netlist cost a few
   words, not an n-word index array.  One reading can also count words
   that the runtime allocates for work left pending by earlier tests in
   the same process (at k = 0, a whole-suite run read 313), so each k
   takes the least of three back-to-back readings, which measures the
   sampler alone. *)
let test_sample_allocates_o_k () =
  let rng = Rng.create ~seed:23 in
  let reading k =
    let before = allocated_words () in
    ignore (Sys.opaque_identity (Rng.sample_without_replacement rng ~k ~n:1_000_000));
    allocated_words () -. before
  in
  List.iter
    (fun k ->
      let words = List.fold_left Float.min (reading k) [ reading k; reading k ] in
      if words > float_of_int ((8 * k) + 64) then
        Alcotest.failf "k = %d of n = 10^6 allocated %.0f words, over 8k + 64" k words)
    [ 0; 1; 6; 32; 1000 ]

let test_categorical_rates () =
  let rng = Rng.create ~seed:22 in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Rng.categorical rng [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  let rate i = float_of_int counts.(i) /. float_of_int n in
  check Alcotest.bool "weight 1 -> 10%" true (Float.abs (rate 0 -. 0.1) < 0.02);
  check Alcotest.bool "weight 2 -> 20%" true (Float.abs (rate 1 -. 0.2) < 0.02);
  check Alcotest.bool "weight 7 -> 70%" true (Float.abs (rate 2 -. 0.7) < 0.02)

let test_categorical_zero_weight_skipped () =
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 500 do
    check Alcotest.int "only positive-weight index" 1 (Rng.categorical rng [| 0.; 5.; 0. |])
  done

let test_categorical_invalid () =
  let rng = Rng.create ~seed:23 in
  Alcotest.check_raises "all zero" (Invalid_argument "Rng.categorical: weights sum to zero")
    (fun () -> ignore (Rng.categorical rng [| 0.; 0. |]));
  Alcotest.check_raises "negative" (Invalid_argument "Rng.categorical: negative weight")
    (fun () -> ignore (Rng.categorical rng [| 1.; -1. |]))

(* An infinite weight or total used to make every draw land on the last
   index, whatever the weights said. *)
let test_categorical_non_finite () =
  let rng = Rng.create ~seed:24 in
  Alcotest.check_raises "infinite weight" (Invalid_argument "Rng.categorical: infinite weight")
    (fun () -> ignore (Rng.categorical rng [| Float.infinity; 1. |]));
  Alcotest.check_raises "total past max_float"
    (Invalid_argument "Rng.categorical: weights sum past max_float") (fun () ->
      ignore (Rng.categorical rng [| Float.max_float; Float.max_float; 1. |]));
  Alcotest.check_raises "NaN weight" (Invalid_argument "Rng.categorical: negative weight")
    (fun () -> ignore (Rng.categorical rng [| 1.; Float.nan |]));
  Alcotest.check_raises "negative beside a huge weight"
    (Invalid_argument "Rng.categorical: negative weight") (fun () ->
      ignore (Rng.categorical rng [| Float.max_float; -1. |]));
  (* A total just below max_float still draws in proportion. *)
  let half = Float.max_float /. 2. in
  let counts = Array.make 2 0 in
  for _ = 1 to 2000 do
    let i = Rng.categorical rng [| half; half |] in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.bool "both halves drawn" true (counts.(0) > 800 && counts.(1) > 800)

let test_state_roundtrip_exact () =
  let a = Rng.create ~seed:31 in
  for _ = 1 to 17 do
    ignore (Rng.bits32 a)
  done;
  let s = Rng.to_state a in
  match Rng.of_state s with
  | Error msg -> Alcotest.fail msg
  | Ok b ->
      for _ = 1 to 100 do
        check Alcotest.int32 "restored stream identical" (Rng.bits32 a) (Rng.bits32 b)
      done

let test_state_rejects_corrupt () =
  let good = Rng.to_state (Rng.create ~seed:1) in
  let cases =
    [
      "";
      "pcg32";
      "pcg32:deadbeef";
      String.sub good 0 (String.length good - 1) (* truncated *);
      good ^ "0" (* padded *);
      "pcg64" ^ String.sub good 5 (String.length good - 5) (* wrong tag *);
      "pcg32:" ^ String.make 16 'g' ^ ":" ^ String.make 16 '0' (* non-hex *);
      "pcg32:" ^ String.make 16 'A' ^ ":" ^ String.make 15 'a' ^ "1" (* uppercase *);
      "pcg32:" ^ String.make 16 '0' ^ ":" ^ String.make 16 '2' (* even inc *);
    ]
  in
  List.iter
    (fun s ->
      match Rng.of_state s with
      | Error msg ->
          check Alcotest.bool "error names the function" true
            (String.length msg > 0
            && String.sub msg 0 12 = "Rng.of_state")
      | Ok _ -> Alcotest.failf "%S should not decode" s)
    cases

let prop_state_roundtrip =
  QCheck.Test.make ~name:"qcheck: to_state/of_state round-trips for any seed and position"
    QCheck.(pair int (int_range 0 200))
    (fun (seed, advance) ->
      let a = Rng.create ~seed in
      for _ = 1 to advance do
        ignore (Rng.bits32 a)
      done;
      match Rng.of_state (Rng.to_state a) with
      | Error _ -> false
      | Ok b ->
          let same = ref true in
          for _ = 1 to 32 do
            if Rng.bits32 a <> Rng.bits32 b then same := false
          done;
          !same)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"qcheck: Rng.int within bounds for any seed/bound"
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_permutation_sorted =
  QCheck.Test.make ~name:"qcheck: permutation is always a permutation"
    QCheck.(pair int (int_range 0 50))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create ~seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let suite =
  [
    case "determinism" test_determinism;
    case "PCG32 known answers" test_known_answers;
    case "int draws allocate nothing" test_int_allocates_nothing;
    case "seed sensitivity" test_seed_sensitivity;
    case "copy continues identically" test_copy_independent;
    case "split decorrelated" test_split_decorrelated;
    case "split deterministic" test_split_deterministic;
    case "int bounds" test_int_bounds;
    case "int bound one" test_int_bound_one;
    case "int rejects non-positive bound" test_int_rejects_nonpositive;
    case "int uniformity (chi-squared)" test_int_uniformity;
    case "int_range bounds" test_int_range;
    case "int_range invalid" test_int_range_invalid;
    case "unit_float in [0,1)" test_unit_float_range;
    case "unit_float mean" test_unit_float_mean;
    case "bool balance" test_bool_balance;
    case "bernoulli edge probabilities" test_bernoulli_edges;
    case "bernoulli rate" test_bernoulli_rate;
    case "gaussian moments" test_gaussian_moments;
    case "exponential mean and sign" test_exponential_mean;
    case "exponential invalid lambda" test_exponential_invalid;
    case "pair_distinct validity" test_pair_distinct;
    case "pair_distinct covers all pairs" test_pair_distinct_covers_all;
    case "permutation validity" test_permutation_valid;
    case "shuffle preserves multiset" test_shuffle_preserves_multiset;
    case "pick membership and empty" test_pick;
    case "sample without replacement" test_sample_without_replacement;
    case "sample matches the dense Fisher-Yates" test_sample_matches_dense;
    case "sample allocates O(k)" test_sample_allocates_o_k;
    case "categorical rates" test_categorical_rates;
    case "categorical skips zero weights" test_categorical_zero_weight_skipped;
    case "categorical invalid weights" test_categorical_invalid;
    case "categorical rejects non-finite weights" test_categorical_non_finite;
    case "to_state/of_state exact round-trip" test_state_roundtrip_exact;
    case "of_state rejects corrupt input" test_state_rejects_corrupt;
    QCheck_alcotest.to_alcotest prop_state_roundtrip;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_permutation_sorted;
  ]
