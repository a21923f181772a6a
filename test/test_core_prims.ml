(* Budget, Schedule, and Gfun: the engine-independent pieces. *)

let case name f = Alcotest.test_case name `Quick f
let checkf name expected actual = Alcotest.check (Alcotest.float 1e-9) name expected actual

(* --------------------------- Budget ----------------------------- *)

let test_budget_evaluations () =
  let c = Budget.start (Budget.Evaluations 3) in
  Alcotest.check Alcotest.bool "fresh not exhausted" false (Budget.exhausted c);
  Budget.tick c;
  Budget.tick c;
  Alcotest.check Alcotest.bool "2/3 not exhausted" false (Budget.exhausted c);
  Budget.tick c;
  Alcotest.check Alcotest.bool "3/3 exhausted" true (Budget.exhausted c);
  Alcotest.check Alcotest.int "ticks" 3 (Budget.ticks c)

let test_budget_zero () =
  let c = Budget.start (Budget.Evaluations 0) in
  Alcotest.check Alcotest.bool "zero budget exhausted immediately" true (Budget.exhausted c);
  for temp = 0 to 6 do
    Alcotest.check Alcotest.int "every share ends at tick 0" 0
      (Budget.share_end (Budget.Evaluations 0) ~k:6 temp)
  done

let test_budget_share_end () =
  let ends n k = List.init (k + 1) (Budget.share_end (Budget.Evaluations n) ~k) in
  Alcotest.check Alcotest.(list int) "exact quotient" [ 0; 100; 200; 300; 400; 500; 600 ]
    (ends 600 6);
  (* 10/6 per share: each end rounds up to the next whole tick. *)
  Alcotest.check Alcotest.(list int) "inexact quotient" [ 0; 2; 4; 5; 7; 9; 10 ] (ends 10 6);
  Alcotest.check Alcotest.(list int) "fewer ticks than shares" [ 0; 1; 1; 1; 2; 2; 2 ] (ends 2 6)

let test_budget_share_end_max_int () =
  (* max_int = 2^62 - 1 would overflow [temp * n]; the split form does
     not. *)
  let big = Budget.Evaluations max_int in
  Alcotest.check Alcotest.int "half of max_int, rounded up" (1 lsl 61)
    (Budget.share_end big ~k:6 3);
  Alcotest.check Alcotest.int "last share ends at max_int" max_int
    (Budget.share_end big ~k:6 6);
  Alcotest.check Alcotest.int "five sixths of max_int, rounded up"
    ((5 * (max_int / 6)) + 3)
    (Budget.share_end big ~k:6 5)

let test_budget_evaluations_of () =
  Alcotest.check Alcotest.int "count" 7 (Budget.evaluations (Budget.Evaluations 7));
  (* A clock spends exactly the budget's evaluation count. *)
  let budget = Budget.Evaluations 5 in
  let c = Budget.start budget in
  for _ = 2 to Budget.evaluations budget do
    Budget.tick c
  done;
  Alcotest.check Alcotest.bool "one tick short" false (Budget.exhausted c);
  Budget.tick c;
  Alcotest.check Alcotest.bool "spent" true (Budget.exhausted c)

let test_budget_negative () =
  Alcotest.check_raises "negative evals"
    (Invalid_argument "Budget.start: negative evaluations") (fun () ->
      ignore (Budget.start (Budget.Evaluations (-1))))

let test_budget_scale () =
  match Budget.scale 1.5 (Budget.Evaluations 6000) with
  | Budget.Evaluations n -> Alcotest.check Alcotest.int "scaled evals" 9000 n

let test_budget_start_at () =
  let c = Budget.start_at ~ticks:7 (Budget.Evaluations 10) in
  Alcotest.check Alcotest.int "resumed ticks" 7 (Budget.ticks c);
  Alcotest.check Alcotest.bool "resumed, not exhausted" false (Budget.exhausted c);
  Budget.tick c;
  Budget.tick c;
  Budget.tick c;
  Alcotest.check Alcotest.bool "exhausts from the resumed count" true (Budget.exhausted c);
  Alcotest.check_raises "negative ticks"
    (Invalid_argument "Budget.start_at: negative ticks") (fun () ->
      ignore (Budget.start_at ~ticks:(-1) (Budget.Evaluations 5)))

(* --------------------------- Schedule --------------------------- *)

let test_schedule_constant () =
  let s = Schedule.constant ~k:4 2.5 in
  Alcotest.check Alcotest.int "length" 4 (Schedule.length s);
  for i = 1 to 4 do
    checkf "all equal" 2.5 (Schedule.get s i)
  done

let test_schedule_geometric () =
  let s = Schedule.geometric ~y1:10. ~ratio:0.9 ~k:6 in
  checkf "first" 10. (Schedule.get s 1);
  checkf "second" 9. (Schedule.get s 2);
  checkf "sixth" (10. *. (0.9 ** 5.)) (Schedule.get s 6)

let test_schedule_kirkpatrick () =
  let s = Schedule.kirkpatrick () in
  Alcotest.check Alcotest.int "k = 6" 6 (Schedule.length s);
  checkf "Y1 = 10" 10. (Schedule.get s 1)

let test_schedule_uniform_points () =
  let s = Schedule.uniform_points ~count:4 ~max:8. in
  checkf "hottest first" 8. (Schedule.get s 1);
  checkf "coldest last" 2. (Schedule.get s 4);
  (* evenly spaced *)
  checkf "step" 2. (Schedule.get s 1 -. Schedule.get s 2)

let test_schedule_monotone_decreasing () =
  List.iter
    (fun s ->
      for i = 1 to Schedule.length s - 1 do
        Alcotest.check Alcotest.bool "non-increasing" true
          (Schedule.get s i >= Schedule.get s (i + 1))
      done)
    [ Schedule.kirkpatrick (); Schedule.uniform_points ~count:10 ~max:5. ]

let test_schedule_scaled () =
  let s = Schedule.scaled (Schedule.constant ~k:3 2.) 1.5 in
  checkf "scaled" 3. (Schedule.get s 2)

let test_schedule_get_bounds () =
  let s = Schedule.constant ~k:2 1. in
  Alcotest.check_raises "index 0" (Invalid_argument "Schedule.get: index outside 1..k")
    (fun () -> ignore (Schedule.get s 0));
  Alcotest.check_raises "index 3" (Invalid_argument "Schedule.get: index outside 1..k")
    (fun () -> ignore (Schedule.get s 3))

let test_schedule_validation () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Schedule.constant ~k:0 1.);
  invalid (fun () -> Schedule.constant ~k:3 0.);
  invalid (fun () -> Schedule.geometric ~y1:1. ~ratio:0. ~k:3);
  invalid (fun () -> Schedule.geometric ~y1:1. ~ratio:1.1 ~k:3);
  invalid (fun () -> Schedule.of_array [||]);
  invalid (fun () -> Schedule.of_array [| 1.; -2. |])

let test_schedule_of_array_copies () =
  let a = [| 5.; 4. |] in
  let s = Schedule.of_array a in
  a.(0) <- 1.;
  checkf "copied" 5. (Schedule.get s 1)

(* ----------------------------- Gfun ------------------------------ *)

let eval g ~temp ~y ~hi ~hj = Gfun.eval g ~temp ~y ~hi ~hj

let test_metropolis_values () =
  let g = Gfun.metropolis in
  Alcotest.check Alcotest.int "k" 1 (Gfun.k g);
  checkf "zero delta accepts surely" 1. (eval g ~temp:1 ~y:2. ~hi:10. ~hj:10.);
  checkf "delta 2 at Y 2" (exp (-1.)) (eval g ~temp:1 ~y:2. ~hi:10. ~hj:12.)

let test_six_temp_matches_metropolis_formula () =
  let g = Gfun.six_temp_annealing in
  Alcotest.check Alcotest.int "k = 6" 6 (Gfun.k g);
  checkf "same formula" (exp (-0.5)) (eval g ~temp:3 ~y:4. ~hi:1. ~hj:3.)

let test_g_one () =
  let g = Gfun.g_one in
  Alcotest.check Alcotest.bool "defers uphill" true (Gfun.defer_uphill g);
  Alcotest.check Alcotest.bool "no temperatures" false (Gfun.uses_temperature g);
  checkf "always 1" 1. (eval g ~temp:1 ~y:99. ~hi:5. ~hj:50.)

let test_two_level () =
  let g = Gfun.two_level in
  Alcotest.check Alcotest.int "k = 2" 2 (Gfun.k g);
  checkf "level 1" 1. (eval g ~temp:1 ~y:1. ~hi:0. ~hj:9.);
  checkf "level 2" 0.5 (eval g ~temp:2 ~y:1. ~hi:0. ~hj:9.)

let test_poly () =
  let poly degree = Gfun.poly ~k:1 ~degree in
  checkf "linear" 0.6 (eval (poly 1) ~temp:1 ~y:0.02 ~hi:30. ~hj:31.);
  checkf "quadratic" (0.001 *. 900.) (eval (poly 2) ~temp:1 ~y:0.001 ~hi:30. ~hj:31.);
  checkf "cubic" (1e-5 *. 27000.) (eval (poly 3) ~temp:1 ~y:1e-5 ~hi:30. ~hj:31.)

let test_poly_ignores_hj () =
  let g = Gfun.poly ~k:1 ~degree:2 in
  checkf "independent of h(j)"
    (eval g ~temp:1 ~y:0.01 ~hi:10. ~hj:11.)
    (eval g ~temp:1 ~y:0.01 ~hi:10. ~hj:99.)

let test_exponential () =
  let g = Gfun.exponential ~k:1 in
  checkf "h(i) = Y gives 1" 1. (eval g ~temp:1 ~y:30. ~hi:30. ~hj:31.);
  Alcotest.check Alcotest.bool "smaller h(i) below 1" true
    (eval g ~temp:1 ~y:30. ~hi:10. ~hj:11. < 1.)

let test_diff_classes () =
  let diff degree = Gfun.poly_diff ~k:1 ~degree in
  checkf "linear diff" 0.25 (eval (diff 1) ~temp:1 ~y:0.5 ~hi:10. ~hj:12.);
  checkf "quadratic diff" 0.125 (eval (diff 2) ~temp:1 ~y:0.5 ~hi:10. ~hj:12.);
  checkf "cubic diff" 0.0625 (eval (diff 3) ~temp:1 ~y:0.5 ~hi:10. ~hj:12.)

let test_diff_zero_delta_is_infinite () =
  let v = eval (Gfun.poly_diff ~k:1 ~degree:1) ~temp:1 ~y:0.5 ~hi:10. ~hj:10. in
  Alcotest.check Alcotest.bool "plateau move accepted surely" true (v = Float.infinity)

let test_exponential_diff () =
  let g = Gfun.exponential_diff ~k:1 in
  checkf "Y = delta gives 1" 1. (eval g ~temp:1 ~y:2. ~hi:10. ~hj:12.);
  Alcotest.check Alcotest.bool "large delta shrinks" true
    (eval g ~temp:1 ~y:2. ~hi:10. ~hj:30. < eval g ~temp:1 ~y:2. ~hi:10. ~hj:12.)

let test_diff_monotone_in_delta () =
  List.iter
    (fun g ->
      let at hj = eval g ~temp:1 ~y:1. ~hi:10. ~hj in
      Alcotest.check Alcotest.bool
        (Gfun.name g ^ " decreasing in delta")
        true
        (at 11. >= at 12. && at 12. >= at 15. && at 15. >= at 30.))
    [
      Gfun.metropolis;
      Gfun.poly_diff ~k:1 ~degree:1;
      Gfun.poly_diff ~k:1 ~degree:2;
      Gfun.poly_diff ~k:1 ~degree:3;
      Gfun.exponential_diff ~k:1;
    ]

let test_cohoon_sahni () =
  let g = Gfun.cohoon_sahni ~m:150 in
  checkf "density 31 at m 150" (31. /. 155.) (eval g ~temp:1 ~y:1. ~hi:31. ~hj:32.);
  checkf "capped at 0.9" 0.9 (eval g ~temp:1 ~y:1. ~hi:1000. ~hj:1001.)

let test_catalog_shape () =
  let catalog = Gfun.catalog ~m:150 in
  Alcotest.check Alcotest.int "21 rows" 21 (List.length catalog);
  let names = List.map Gfun.name catalog in
  let uniq = List.sort_uniq compare names in
  Alcotest.check Alcotest.int "unique names" 21 (List.length uniq);
  Alcotest.check Alcotest.bool "contains the paper's rows" true
    (List.for_all
       (fun n -> List.mem n names)
       [ "Metropolis"; "Six Temperature Annealing"; "g = 1"; "Two level g"; "Cubic Diff";
         "6 Exponential Diff"; "[COHO83a]" ])

let test_short_catalog_shape () =
  let short = Gfun.short_catalog ~m:150 in
  Alcotest.check Alcotest.int "13 rows" 13 (List.length short);
  let names = List.map Gfun.name short in
  (* classes 5-12 are dropped *)
  List.iter
    (fun dropped ->
      Alcotest.check Alcotest.bool (dropped ^ " dropped") false (List.mem dropped names))
    [ "Linear"; "Quadratic"; "Cubic"; "Exponential"; "6 Linear"; "6 Quadratic"; "6 Cubic";
      "6 Exponential" ]

let test_six_variants_have_k6 () =
  List.iter
    (fun g ->
      if String.length (Gfun.name g) > 1 && String.sub (Gfun.name g) 0 2 = "6 " then
        Alcotest.check Alcotest.int (Gfun.name g ^ " has k = 6") 6 (Gfun.k g))
    (Gfun.catalog ~m:150);
  Alcotest.check Alcotest.int "six temp annealing k" 6 (Gfun.k Gfun.six_temp_annealing)

let test_find_by_name () =
  (match Gfun.find_by_name ~m:150 "g = 1" with
  | Some g -> Alcotest.check Alcotest.string "found" "g = 1" (Gfun.name g)
  | None -> Alcotest.fail "g = 1 not found");
  (match Gfun.find_by_name ~m:150 "CUBIC DIFF" with
  | Some g -> Alcotest.check Alcotest.string "case-insensitive" "Cubic Diff" (Gfun.name g)
  | None -> Alcotest.fail "case-insensitive lookup failed");
  List.iter
    (fun m ->
      List.iter
        (fun g ->
          let name = Gfun.name g in
          List.iter
            (fun spelling ->
              match Gfun.find_by_name ~m spelling with
              | Some found -> Alcotest.check Alcotest.string spelling name (Gfun.name found)
              | None -> Alcotest.failf "%s not found at m = %d" spelling m)
            [ String.uppercase_ascii name; String.lowercase_ascii name ])
        (Gfun.catalog ~m))
    [ 1; 150 ];
  (match Gfun.find_by_name ~m:150 "[coho83a]" with
  | Some g -> checkf "[COHO83a] reads m = 150" 0.2 (eval g ~temp:1 ~y:1. ~hi:31. ~hj:32.)
  | None -> Alcotest.fail "[COHO83a] not found");
  Alcotest.check Alcotest.bool "unknown gives None" true
    (Gfun.find_by_name ~m:150 "no such class" = None)

(* The engines' one schedule-length check: every class accepts the
   schedule [Gfun.schedule] builds for it, and any other length is
   refused with a message naming the caller, the class and its k. *)
let test_check_schedule () =
  List.iter
    (fun g ->
      let k = Gfun.k g in
      Gfun.check_schedule ~caller:"test" g (Gfun.schedule g 0.5);
      Alcotest.check_raises (Gfun.name g)
        (Invalid_argument
           (Printf.sprintf "test: schedule length %d but %s expects k = %d"
              (k + 1) (Gfun.name g) k))
        (fun () ->
          Gfun.check_schedule ~caller:"test" g (Schedule.constant ~k:(k + 1) 1.)))
    (Gfun.catalog ~m:150)

(* Every class bit for bit: its name, k, both flags and the
   temperatures [schedule g 0.5] builds, then the IEEE bits of [eval]
   over a grid of temperatures, Y values, h(i) and h(j) - h(i), all
   digested into one constant. *)
let pinned_classes =
  Gfun.catalog ~m:150
  @ [
      Gfun.annealing ~k:25;
      Gfun.cohoon_sahni ~m:0;
      Gfun.poly ~k:1 ~degree:4;
      Gfun.custom ~name:"pinned fixture" ~k:3 (fun ~temp ~y ~hi ~hj ->
          (float_of_int temp *. y) +. hi -. hj);
    ]

let test_classes_pinned () =
  let b = Buffer.create 65536 in
  let bits x = Printf.bprintf b "%Lx;" (Int64.bits_of_float x) in
  List.iter
    (fun g ->
      Printf.bprintf b "\n%s|%d|%b|%b|" (Gfun.name g) (Gfun.k g)
        (Gfun.uses_temperature g) (Gfun.defer_uphill g);
      let s = Gfun.schedule g 0.5 in
      for i = 1 to Schedule.length s do
        bits (Schedule.get s i)
      done;
      Buffer.add_char b '|';
      for temp = 1 to Gfun.k g do
        List.iter
          (fun y ->
            List.iter
              (fun hi ->
                List.iter
                  (fun d -> bits (Gfun.eval g ~temp ~y ~hi ~hj:(hi +. d)))
                  [ 0.; 1.; 2.5 ])
              [ 0.; 3.; 30. ])
          [ 1e-5; 0.3; 1.; 7.5 ]
      done)
    pinned_classes;
  Alcotest.check Alcotest.string "digest of every class" "c6d7e8c21ddb68910c4eec038b258d40"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_invalid_degrees () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Gfun.poly ~k:1 ~degree:0);
  invalid (fun () -> Gfun.poly_diff ~k:1 ~degree:0);
  List.iter
    (fun k ->
      invalid (fun () -> Gfun.poly ~k ~degree:1);
      invalid (fun () -> Gfun.exponential ~k);
      invalid (fun () -> Gfun.poly_diff ~k ~degree:1);
      invalid (fun () -> Gfun.exponential_diff ~k))
    [ 0; 2; 5; 7 ];
  invalid (fun () -> Gfun.cohoon_sahni ~m:(-1))

let prop_metropolis_in_unit_interval =
  QCheck.Test.make ~name:"qcheck: Metropolis value in (0, 1] for uphill moves"
    QCheck.(triple (float_range 0.1 100.) (float_range 0. 100.) (float_range 0. 50.))
    (fun (y, hi, delta) ->
      let v = Gfun.eval Gfun.metropolis ~temp:1 ~y ~hi ~hj:(hi +. delta) in
      v > 0. && v <= 1.)

(* The Figure 1 and rejectionless engines once advanced past [temp]
   on the first tick whose spent fraction [ticks / n] (clamped to 1,
   and 1 for n = 0) reached [temp / k] in floats.  That reference is
   written out here: the integer test [ticks >= share_end] must agree
   with it on every tick around each share end, for n * k < 2^53. *)
let prop_share_end_matches_float_test =
  QCheck.Test.make ~count:300
    ~name:"qcheck: share_end advances on the float test's tick"
    QCheck.(
      triple
        (oneof [ int_range 0 1000; int_range 0 10_000_000; int_range 0 (1 lsl 40) ])
        (int_range 1 64) (int_range 0 64))
    (fun (n, k, temp) ->
      let temp = temp mod (k + 1) in
      let budget = Budget.Evaluations n in
      let float_reached t =
        let used = if n = 0 then 1. else Float.min 1. (float_of_int t /. float_of_int n) in
        used >= float_of_int temp /. float_of_int k
      in
      let e = Budget.share_end budget ~k temp in
      let agree = ref true in
      for t = Int.max 0 (e - 3) to Int.min n (e + 3) do
        if t >= e <> float_reached t then agree := false
      done;
      !agree)

let suite =
  [
    case "budget: evaluations count down" test_budget_evaluations;
    case "budget: zero exhausts immediately" test_budget_zero;
    case "budget: share ends" test_budget_share_end;
    case "budget: share ends near max_int do not overflow" test_budget_share_end_max_int;
    case "budget: evaluations" test_budget_evaluations_of;
    case "budget: negative rejected" test_budget_negative;
    case "budget: scaling" test_budget_scale;
    case "budget: start_at resumes the tick count" test_budget_start_at;
    QCheck_alcotest.to_alcotest prop_share_end_matches_float_test;
    case "schedule: constant" test_schedule_constant;
    case "schedule: geometric" test_schedule_geometric;
    case "schedule: kirkpatrick literal" test_schedule_kirkpatrick;
    case "schedule: uniform points" test_schedule_uniform_points;
    case "schedule: monotone decreasing" test_schedule_monotone_decreasing;
    case "schedule: scaled" test_schedule_scaled;
    case "schedule: get bounds" test_schedule_get_bounds;
    case "schedule: validation" test_schedule_validation;
    case "schedule: of_array copies" test_schedule_of_array_copies;
    case "gfun: Metropolis values" test_metropolis_values;
    case "gfun: six-temp formula" test_six_temp_matches_metropolis_formula;
    case "gfun: g = 1" test_g_one;
    case "gfun: two-level" test_two_level;
    case "gfun: polynomial classes" test_poly;
    case "gfun: poly ignores h(j)" test_poly_ignores_hj;
    case "gfun: exponential" test_exponential;
    case "gfun: difference classes" test_diff_classes;
    case "gfun: zero-delta difference is +inf" test_diff_zero_delta_is_infinite;
    case "gfun: exponential difference" test_exponential_diff;
    case "gfun: monotone in delta" test_diff_monotone_in_delta;
    case "gfun: [COHO83a]" test_cohoon_sahni;
    case "gfun: catalog shape" test_catalog_shape;
    case "gfun: short catalog drops classes 5-12" test_short_catalog_shape;
    case "gfun: six-temperature variants have k = 6" test_six_variants_have_k6;
    case "gfun: find_by_name" test_find_by_name;
    case "gfun: every class pinned bit for bit" test_classes_pinned;
    case "gfun: check_schedule refuses any other length" test_check_schedule;
    case "gfun: invalid constructor args" test_invalid_degrees;
    QCheck_alcotest.to_alcotest prop_metropolis_in_unit_interval;
  ]
