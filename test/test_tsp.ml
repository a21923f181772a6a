(* TSP substrate: instances, tours, 2-opt/Or-opt deltas, constructive
   heuristics, and the SA adapter. *)

let case name f = Alcotest.test_case name `Quick f
let checkf eps name expected actual = Alcotest.check (Alcotest.float eps) name expected actual

(* Unit square corners: the optimal tour is the perimeter, length 4. *)
let square () = Tsp_instance.create [| (0., 0.); (1., 0.); (1., 1.); (0., 1.) |]

let test_instance_distances () =
  let inst = square () in
  checkf 1e-9 "adjacent" 1. (Tsp_instance.distance inst 0 1);
  checkf 1e-9 "diagonal" (sqrt 2.) (Tsp_instance.distance inst 0 2);
  checkf 1e-9 "symmetric" (Tsp_instance.distance inst 1 3) (Tsp_instance.distance inst 3 1);
  checkf 1e-9 "self zero" 0. (Tsp_instance.distance inst 2 2)

let bits = Int64.bits_of_float

(* Uniform cities, and clustered ones whose Gaussian spread pushes some
   coordinates below zero. *)
let bit_instances () =
  let rng = Rng.create ~seed:17 in
  let clustered = Tsp_instance.random_clustered rng ~n:60 ~clusters:3 ~spread:0.3 in
  let negative = ref false in
  for i = 0 to 59 do
    let x, y = Tsp_instance.coord clustered i in
    if x < 0. || y < 0. then negative := true
  done;
  Alcotest.check Alcotest.bool "clustered instance has negative coordinates" true !negative;
  [ ("uniform", Tsp_instance.random_uniform rng ~n:60); ("clustered", clustered) ]

let test_distance_bits () =
  List.iter
    (fun (name, inst) ->
      let n = Tsp_instance.size inst in
      for i = 0 to n - 1 do
        Alcotest.check Alcotest.int64 (name ^ ": self distance is 0.") (bits 0.)
          (bits (Tsp_instance.distance inst i i));
        for j = 0 to n - 1 do
          if bits (Tsp_instance.distance inst i j) <> bits (Tsp_instance.distance inst j i)
          then Alcotest.failf "%s: distance %d %d and %d %d differ in bits" name i j j i
        done
      done)
    (bit_instances ())

(* [Tour] computes distances itself; its length and 2-opt deltas must be
   the instance's distances summed in the same order, bit for bit. *)
let test_tour_prices_with_instance_distances () =
  List.iter
    (fun (name, inst) ->
      let d = Tsp_instance.distance inst in
      let rng = Rng.create ~seed:18 in
      let t = Tour.random rng inst in
      let n = Tour.size t in
      let sum = ref 0. in
      for p = 0 to n - 1 do
        sum := !sum +. d (Tour.city_at t p) (Tour.city_at t (p + 1))
      done;
      Alcotest.check Alcotest.int64 (name ^ ": length") (bits !sum) (bits (Tour.length t));
      for _ = 1 to 200 do
        let a, b = Rng.pair_distinct rng n in
        let i = min a b and j = max a b in
        if not (i = 0 && j = n - 1) then begin
          let a = Tour.city_at t (i - 1) and b = Tour.city_at t i
          and c = Tour.city_at t j and e = Tour.city_at t (j + 1) in
          Alcotest.check Alcotest.int64 (name ^ ": 2-opt delta")
            (bits (d a c +. d b e -. d a b -. d c e))
            (bits (Tour.two_opt_delta t i j))
        end
      done)
    (bit_instances ())

(* Coordinates only: two float arrays of n words plus headers. *)
let test_instance_memory_linear () =
  let n = 2000 in
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:19) ~n in
  let words = Obj.reachable_words (Obj.repr inst) in
  if words > (4 * n) + 64 then
    Alcotest.failf "a %d-city instance reaches %d words, over 4n + 64 = %d" n words
      ((4 * n) + 64)

let test_instance_validation () =
  match Tsp_instance.create [| (0., 0.); (1., 1.) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for n < 3"

(* A NaN or infinite coordinate would poison every distance it enters. *)
let non_finite = [ ("nan", Float.nan); ("inf", Float.infinity); ("-inf", Float.neg_infinity) ]

let test_instance_rejects_non_finite () =
  List.iter
    (fun (name, v) ->
      List.iter
        (fun pt ->
          match Tsp_instance.create [| (0., 0.); pt; (1., 1.) |] with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "coordinate %s accepted" name)
        [ (v, 1.); (1., v) ])
    non_finite

let test_io_rejects_non_finite () =
  List.iter
    (fun (name, _) ->
      let line = Printf.sprintf "2 %s 1" name in
      match Tsp_io.of_string ("NODE_COORD_SECTION\n1 0 0\n" ^ line ^ "\n3 1 1\nEOF\n") with
      | Error msg ->
          Alcotest.check Alcotest.string (name ^ ": message")
            (Printf.sprintf "malformed coordinate line: %S" line)
            msg
      | Ok _ -> Alcotest.failf "coordinate %s accepted" name)
    non_finite

let test_random_instances () =
  let rng = Rng.create ~seed:1 in
  let inst = Tsp_instance.random_uniform rng ~n:20 in
  Alcotest.check Alcotest.int "size" 20 (Tsp_instance.size inst);
  for i = 0 to 19 do
    let x, y = Tsp_instance.coord inst i in
    Alcotest.check Alcotest.bool "in unit square" true (x >= 0. && x < 1. && y >= 0. && y < 1.)
  done;
  let clustered = Tsp_instance.random_clustered rng ~n:20 ~clusters:3 ~spread:0.01 in
  Alcotest.check Alcotest.int "clustered size" 20 (Tsp_instance.size clustered)

(* Seed 7's coordinates as the generators first drew them, each city's
   y before its x.  Exact bits: a swapped draw order, or any other change
   to the stream, moves every value. *)
let test_random_coordinates_pinned () =
  let pinned name inst expected =
    Array.iteri
      (fun i (x, y) ->
        let x', y' = Tsp_instance.coord inst i in
        if not (Float.equal x x' && Float.equal y y') then
          Alcotest.failf "%s city %d: expected (%h, %h), got (%h, %h)" name i x y x' y')
      expected;
    Alcotest.check Alcotest.int (name ^ " size") (Array.length expected) (Tsp_instance.size inst)
  in
  pinned "uniform"
    (Tsp_instance.random_uniform (Rng.create ~seed:7) ~n:5)
    [|
      (0x1.d20f0948p-2, 0x1.9bdecd6p-3);
      (0x1.93db703ap-1, 0x1.6788e9d6p-1);
      (0x1.6ea63bdp-4, 0x1.f3d5a6e6p-1);
      (0x1.755360e4p-2, 0x1.b5bffb94p-1);
      (0x1.34c1dfbap-1, 0x1.2e0c8f7ap-1);
    |];
  pinned "clustered"
    (Tsp_instance.random_clustered (Rng.create ~seed:7) ~n:6 ~clusters:2 ~spread:0.1)
    [|
      (0x1.566e6ffdd8a96p-1, 0x1.ac77878ec70e8p-1);
      (0x1.aa813e1e79937p-1, 0x1.5d9ebc64a92ecp-1);
      (0x1.dda2b3eb6da1dp-2, 0x1.32c1f4296887cp-4);
      (0x1.eaff5ee5c1dcdp-2, 0x1.23bc0f57e50b6p-3);
      (0x1.6c515bd8e0a5ap-2, 0x1.1fd1b64ca5a87p-2);
      (0x1.362332631d2d9p-1, 0x1.d832da109b32cp-2);
    |]

let test_tour_identity_length () =
  let t = Tour.identity (square ()) in
  checkf 1e-9 "perimeter" 4. (Tour.length t);
  checkf 1e-9 "matches recompute" (Tour.recompute_length t) (Tour.length t)

let test_tour_of_order_validation () =
  let inst = square () in
  (match Tour.of_order inst [| 0; 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong length accepted");
  match Tour.of_order inst [| 0; 1; 2; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_tour_city_at_wraps () =
  let t = Tour.of_order (square ()) [| 2; 0; 3; 1 |] in
  Alcotest.check Alcotest.int "position 0" 2 (Tour.city_at t 0);
  Alcotest.check Alcotest.int "wraps forward" 2 (Tour.city_at t 4);
  Alcotest.check Alcotest.int "wraps backward" 1 (Tour.city_at t (-1))

let test_two_opt_delta_matches_recompute () =
  let rng = Rng.create ~seed:2 in
  let inst = Tsp_instance.random_uniform rng ~n:12 in
  let t = Tour.random rng inst in
  for _ = 1 to 100 do
    let a, b = Rng.pair_distinct rng 12 in
    let i = min a b and j = max a b in
    if not (i = 0 && j = 11) then begin
      let predicted = Tour.two_opt_delta t i j in
      let before = Tour.length t in
      Tour.two_opt t i j;
      checkf 1e-9 "delta exact" (before +. predicted) (Tour.length t);
      checkf 1e-9 "cache consistent" (Tour.recompute_length t) (Tour.length t)
    end
  done

let test_two_opt_involution () =
  let rng = Rng.create ~seed:3 in
  let inst = Tsp_instance.random_uniform rng ~n:10 in
  let t = Tour.random rng inst in
  let before = Tour.order t in
  Tour.two_opt t 2 7;
  Tour.two_opt t 2 7;
  Alcotest.check Alcotest.(array int) "double reversal restores" before (Tour.order t)

let test_two_opt_full_reversal_is_zero_delta () =
  let t = Tour.identity (square ()) in
  checkf 1e-9 "whole-tour reversal is free" 0. (Tour.two_opt_delta t 0 3)

let test_two_opt_uncrosses () =
  (* Order 0 2 1 3 on the square crosses itself; 2-opt of positions 1,2
     uncrosses it back to the perimeter. *)
  let t = Tour.of_order (square ()) [| 0; 2; 1; 3 |] in
  checkf 1e-9 "crossed length" (2. +. (2. *. sqrt 2.)) (Tour.length t);
  Tour.two_opt t 1 2;
  checkf 1e-9 "uncrossed to perimeter" 4. (Tour.length t)

let test_or_opt_delta_matches () =
  let rng = Rng.create ~seed:4 in
  let inst = Tsp_instance.random_uniform rng ~n:11 in
  let t = Tour.random rng inst in
  let tried = ref 0 in
  for seg = 0 to 8 do
    for len = 1 to 2 do
      for dest = 0 to 10 do
        let inside = dest >= seg - 1 && dest < seg + len in
        let wrap = seg = 0 && dest = 10 in
        if seg + len <= 11 && (not inside) && not wrap then begin
          incr tried;
          let copy = Tour.copy t in
          let predicted = Tour.or_opt_delta copy ~seg ~len ~dest in
          let before = Tour.length copy in
          Tour.or_opt copy ~seg ~len ~dest;
          checkf 1e-9 "or-opt delta exact" (before +. predicted) (Tour.length copy);
          checkf 1e-9 "or-opt cache consistent" (Tour.recompute_length copy) (Tour.length copy);
          (* still a permutation *)
          let sorted = Tour.order copy in
          Array.sort compare sorted;
          Alcotest.check Alcotest.(array int) "still a tour" (Array.init 11 (fun i -> i)) sorted
        end
      done
    done
  done;
  Alcotest.check Alcotest.bool "tried many moves" true (!tried > 100)

let test_nearest_neighbor_square () =
  let t = Tsp_heuristics.nearest_neighbor (square ()) ~start:0 in
  checkf 1e-9 "NN finds the perimeter here" 4. (Tour.length t)

let test_cheapest_insertion_square () =
  let t = Tsp_heuristics.cheapest_insertion (square ()) in
  checkf 1e-9 "perimeter" 4. (Tour.length t)

let test_convex_hull_square_plus_centre () =
  let inst = Tsp_instance.create [| (0., 0.); (1., 0.); (1., 1.); (0., 1.); (0.5, 0.5) |] in
  let hull = Tsp_heuristics.convex_hull inst in
  Alcotest.check Alcotest.int "hull has the 4 corners" 4 (List.length hull);
  Alcotest.check Alcotest.bool "centre excluded" false (List.mem 4 hull);
  List.iter (fun c -> Alcotest.check Alcotest.bool "corner" true (c < 4)) hull

let test_hull_insertion_valid_tour () =
  let rng = Rng.create ~seed:5 in
  let inst = Tsp_instance.random_uniform rng ~n:25 in
  let t = Tsp_heuristics.hull_insertion inst in
  let sorted = Tour.order t in
  Array.sort compare sorted;
  Alcotest.check Alcotest.(array int) "valid tour" (Array.init 25 (fun i -> i)) sorted;
  checkf 1e-9 "length cache sound" (Tour.recompute_length t) (Tour.length t)

let test_two_opt_descent_improves () =
  let rng = Rng.create ~seed:6 in
  let inst = Tsp_instance.random_uniform rng ~n:30 in
  let t = Tour.random rng inst in
  let before = Tour.length t in
  let applied = Tsp_heuristics.two_opt_descent t in
  Alcotest.check Alcotest.bool "applies moves" true (applied > 0);
  Alcotest.check Alcotest.bool "improves" true (Tour.length t < before);
  (* local optimality: no improving 2-opt remains *)
  for i = 0 to 28 do
    for j = i + 1 to 29 do
      if not (i = 0 && j = 29) then
        Alcotest.check Alcotest.bool "no improving reversal left" true
          (Tour.two_opt_delta t i j >= -1e-9)
    done
  done

let test_heuristic_ordering_on_uniform () =
  (* The quality ladder that holds on uniform instances: 2-opt-polished
     beats raw NN; hull+insertion beats raw NN. *)
  let rng = Rng.create ~seed:7 in
  let inst = Tsp_instance.random_uniform rng ~n:50 in
  let nn = Tour.length (Tsp_heuristics.nearest_neighbor inst ~start:0) in
  let polished =
    let t = Tsp_heuristics.nearest_neighbor inst ~start:0 in
    ignore (Tsp_heuristics.two_opt_descent t);
    Tour.length t
  in
  let hull = Tour.length (Tsp_heuristics.hull_insertion inst) in
  Alcotest.check Alcotest.bool "2-opt polish helps" true (polished <= nn);
  Alcotest.check Alcotest.bool "hull+insertion beats raw NN" true (hull <= nn)

let test_or_opt_pass_improves_or_keeps () =
  let rng = Rng.create ~seed:8 in
  let inst = Tsp_instance.random_uniform rng ~n:20 in
  let t = Tour.random rng inst in
  let before = Tour.length t in
  ignore (Tsp_heuristics.or_opt_pass t);
  Alcotest.check Alcotest.bool "never worse" true (Tour.length t <= before +. 1e-9)

let test_two_opt_restarts_monotone () =
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:9) ~n:25 in
  let one = Tour.length (Tsp_heuristics.two_opt_restarts (Rng.create ~seed:10) inst ~restarts:1) in
  let five = Tour.length (Tsp_heuristics.two_opt_restarts (Rng.create ~seed:10) inst ~restarts:5) in
  Alcotest.check Alcotest.bool "more restarts never worse (same stream prefix)" true (five <= one)

(* ------------------------------ adapter --------------------------- *)

let test_adapter_roundtrip () =
  let rng = Rng.create ~seed:11 in
  let inst = Tsp_instance.random_uniform rng ~n:15 in
  let t = Tour.random rng inst in
  let before = Tour.order t in
  for _ = 1 to 100 do
    let m = Tsp_problem.random_move rng t in
    Tsp_problem.apply t m;
    Tsp_problem.revert t m
  done;
  Alcotest.check Alcotest.(array int) "restored" before (Tour.order t);
  checkf 1e-6 "length cache intact" (Tour.recompute_length t) (Tour.length t)

let test_adapter_moves_exclude_full_reversal () =
  let t = Tour.identity (square ()) in
  let moves = List.of_seq (Tsp_problem.moves t) in
  Alcotest.check Alcotest.int "C(4,2) - 1 moves" 5 (List.length moves);
  Alcotest.check Alcotest.bool "no (0, n-1)" false (List.mem (0, 3) moves)

let test_sa_beats_random_tour () =
  let rng = Rng.create ~seed:12 in
  let inst = Tsp_instance.random_uniform rng ~n:30 in
  let start = Tour.random rng inst in
  let initial = Tour.length start in
  let module E = Figure1.Make (Tsp_problem) in
  let p =
    E.params ~gfun:Gfun.six_temp_annealing
      ~schedule:(Schedule.geometric ~y1:0.3 ~ratio:0.6 ~k:6)
      ~budget:(Budget.Evaluations 8000) ()
  in
  let r = E.run rng p start in
  Alcotest.check Alcotest.bool "at least 30% shorter" true
    (r.Mc_problem.best_cost < 0.7 *. initial)

(* ------------------------------ file I/O -------------------------- *)

let test_io_roundtrip () =
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:13) ~n:12 in
  match Tsp_io.of_string (Tsp_io.to_string ~name:"t12" inst) with
  | Error msg -> Alcotest.fail msg
  | Ok inst' ->
      Alcotest.check Alcotest.int "size" 12 (Tsp_instance.size inst');
      for i = 0 to 11 do
        for j = 0 to 11 do
          checkf 1e-9 "distances preserved" (Tsp_instance.distance inst i j)
            (Tsp_instance.distance inst' i j)
        done
      done

let test_io_parses_tsplib_style () =
  let text =
    "NAME : tiny\nCOMMENT : hand written\nTYPE : TSP\nDIMENSION : 3\n\
     EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0.0 0.0\n2 3.0 0.0\n3 0.0 4.0\nEOF\n"
  in
  match Tsp_io.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok inst ->
      Alcotest.check Alcotest.int "3 cities" 3 (Tsp_instance.size inst);
      checkf 1e-9 "3-4-5 triangle" 5. (Tsp_instance.distance inst 1 2)

let test_io_rejects_bad_input () =
  let expect_error text =
    match Tsp_io.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
  in
  expect_error "";
  expect_error "DIMENSION : 5\nNODE_COORD_SECTION\n1 0 0\n2 1 1\n3 2 2\nEOF\n";
  expect_error
    "EDGE_WEIGHT_TYPE : GEO\nNODE_COORD_SECTION\n1 0 0\n2 1 1\n3 2 2\nEOF\n";
  expect_error "NODE_COORD_SECTION\n1 zero 0\n2 1 1\n3 2 2\nEOF\n";
  expect_error "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n" (* < 3 cities *);
  expect_error "GIBBERISH SECTION\n"

let test_io_tolerates_tabs_and_blanks () =
  let text = "DIMENSION : 3\n\nNODE_COORD_SECTION\n1\t0\t0\n\n2 1 0\n3 0 1\n" in
  match Tsp_io.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok inst -> Alcotest.check Alcotest.int "3 cities" 3 (Tsp_instance.size inst)

(* Model check: [Tour] against a plain array that reverses [i..j]
   literally and prices each move with [Tsp_instance.distance].  The
   tour reverses the shorter of the segment and its complement and
   then reads itself the other way round; every logical view must
   agree with the model, lengths to the bit. *)
module Model = struct
  let dist = Tsp_instance.distance

  let delta inst m i j =
    let n = Array.length m in
    if i = 0 && j = n - 1 then 0.
    else
      let a = m.((i + n - 1) mod n) and b = m.(i) and c = m.(j) and d = m.((j + 1) mod n) in
      dist inst a c +. dist inst b d -. dist inst a b -. dist inst c d

  let reverse m i j =
    for k = 0 to ((j - i + 1) / 2) - 1 do
      let x = m.(i + k) in
      m.(i + k) <- m.(j - k);
      m.(j - k) <- x
    done

  let length inst m =
    let n = Array.length m in
    let total = ref 0. in
    for p = 0 to n - 1 do
      total := !total +. dist inst m.(p) m.((p + 1) mod n)
    done;
    !total

  let or_opt_delta inst m ~seg ~len ~dest =
    let n = Array.length m in
    let a = m.((seg + n - 1) mod n)
    and b = m.(seg)
    and c = m.(seg + len - 1)
    and d = m.((seg + len) mod n)
    and e = m.(dest)
    and f = m.((dest + 1) mod n) in
    dist inst a d +. dist inst e b +. dist inst c f -. dist inst a b -. dist inst c d
    -. dist inst e f

  (* Remove the segment, then put it back after the city at [dest]. *)
  let or_opt m ~seg ~len ~dest =
    let segment = Array.to_list (Array.sub m seg len) and dest_city = m.(dest) in
    let rest = List.filteri (fun p _ -> p < seg || p >= seg + len) (Array.to_list m) in
    let out =
      List.concat_map (fun c -> if c = dest_city then c :: segment else [ c ]) rest
    in
    Array.blit (Array.of_list out) 0 m 0 (Array.length m)
end

let agrees name inst t m len =
  let n = Array.length m in
  Alcotest.check Alcotest.(array int) (name ^ ": order") m (Tour.order t);
  for p = -n to (2 * n) - 1 do
    if Tour.city_at t p <> m.(((p mod n) + n) mod n) then
      Alcotest.failf "%s: city_at %d is %d, model %d" name p (Tour.city_at t p)
        m.(((p mod n) + n) mod n)
  done;
  Alcotest.check Alcotest.int64 (name ^ ": length bits") (bits len) (bits (Tour.length t));
  Alcotest.check Alcotest.int64 (name ^ ": recompute bits") (bits (Model.length inst m))
    (bits (Tour.recompute_length t))

let model_walk ~n ~seed ~steps =
  let rng = Rng.create ~seed in
  let inst = Tsp_instance.random_uniform rng ~n in
  let t = ref (Tour.random rng inst) in
  let m = Tour.order !t in
  let len = ref (Tour.length !t) in
  let saved = ref (Array.copy m, !len) in
  let two_opt ~priced i j =
    if priced then ignore (Tour.two_opt_delta !t i j);
    let d = Model.delta inst m i j in
    Tour.two_opt !t i j;
    Model.reverse m i j;
    len := !len +. d
  in
  (* A legal Or-opt move: the destination may not touch the segment. *)
  let rec draw_or_opt () =
    let l = Rng.int_range rng 1 (Int.min 3 (n - 2)) in
    let seg = Rng.int rng (n - l + 1) and dest = Rng.int rng n in
    if (dest >= seg - 1 && dest < seg + l) || (seg = 0 && dest = n - 1) then draw_or_opt ()
    else (seg, l, dest)
  in
  (* The edges first: the whole tour, both ends, and arcs either side
     of half the tour. *)
  let edges =
    [ (0, n - 1); (0, 1); (n - 2, n - 1); (0, n - 2); (1, n - 1); (0, n / 2); (n / 2, n - 1) ]
    |> List.filter (fun (i, j) -> 0 <= i && i < j && j < n)
  in
  List.iteri (fun k (i, j) -> two_opt ~priced:(k mod 2 = 0) i j) edges;
  agrees "edges" inst !t m !len;
  for step = 1 to steps do
    let name = Printf.sprintf "n=%d seed=%d step %d" n seed step in
    let a, b = Rng.pair_distinct rng n in
    let i = Int.min a b and j = Int.max a b in
    (match Rng.int rng 8 with
    | 0 ->
        (* A priced move that is then undone: order and length back. *)
        let before = !len in
        two_opt ~priced:true i j;
        Tour.two_opt_undo !t i j;
        Model.reverse m i j;
        len := before
    | 1 ->
        (* A stale record: another pair priced, then [i..j] applied. *)
        let c, d = Rng.pair_distinct rng n in
        ignore (Tour.two_opt_delta !t (Int.min c d) (Int.max c d));
        two_opt ~priced:false i j
    | 2 ->
        (* Walk on from a copy; the original must not move with it. *)
        let original = !t and frozen = Array.copy m and frozen_len = !len in
        t := Tour.copy original;
        agrees (name ^ " copy") inst !t m !len;
        two_opt ~priced:true i j;
        agrees (name ^ " original after copy moved") inst original frozen frozen_len
    | 3 -> saved := (Tour.order !t, Tour.length !t)
    | 4 ->
        let order, l = !saved in
        Tour.restore !t ~order ~len:l;
        Array.blit order 0 m 0 n;
        len := l
    | 5 when n >= 4 ->
        (* An Or-opt move undone by restoring the snapshot taken before
           it, whatever the tour's orientation. *)
        let seg, l, dest = draw_or_opt () in
        let order = Tour.order !t and before = Tour.length !t in
        Tour.or_opt !t ~seg ~len:l ~dest;
        Tour.restore !t ~order ~len:before
    | 6 when n >= 3 ->
        let seg, l, dest = draw_or_opt () in
        let d = Model.or_opt_delta inst m ~seg ~len:l ~dest in
        Alcotest.check Alcotest.int64 (name ^ ": or_opt delta bits") (bits d)
          (bits (Tour.or_opt_delta !t ~seg ~len:l ~dest));
        Tour.or_opt !t ~seg ~len:l ~dest;
        Model.or_opt m ~seg ~len:l ~dest;
        len := !len +. d
    | _ -> two_opt ~priced:(Rng.bool rng) i j);
    agrees name inst !t m !len
  done

let test_tour_model () =
  for n = 3 to 9 do
    for seed = 1 to 12 do
      model_walk ~n ~seed ~steps:60
    done
  done;
  model_walk ~n:1000 ~seed:1985 ~steps:200

let prop_two_opt_keeps_permutation =
  QCheck.Test.make ~name:"qcheck: random 2-opt walks keep tours valid"
    (QCheck.make
       QCheck.Gen.(
         int_range 4 15 >>= fun n ->
         int >|= fun seed -> (n, seed)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let inst = Tsp_instance.random_uniform rng ~n in
      let t = Tour.random rng inst in
      for _ = 1 to 30 do
        let m = Tsp_problem.random_move rng t in
        Tsp_problem.apply t m
      done;
      let sorted = Tour.order t in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i)
      && Float.abs (Tour.recompute_length t -. Tour.length t) < 1e-6)

let suite =
  [
    case "instance distances" test_instance_distances;
    case "distances symmetric bit for bit" test_distance_bits;
    case "tour prices with the instance's distances" test_tour_prices_with_instance_distances;
    case "instance memory is O(n)" test_instance_memory_linear;
    case "instance validation" test_instance_validation;
    case "instance rejects non-finite coordinates" test_instance_rejects_non_finite;
    case "random instances" test_random_instances;
    case "random coordinates pinned" test_random_coordinates_pinned;
    case "tour identity length" test_tour_identity_length;
    case "tour order validation" test_tour_of_order_validation;
    case "city_at wraps" test_tour_city_at_wraps;
    case "2-opt delta matches recompute" test_two_opt_delta_matches_recompute;
    case "2-opt is an involution" test_two_opt_involution;
    case "full reversal has zero delta" test_two_opt_full_reversal_is_zero_delta;
    case "2-opt uncrosses the square" test_two_opt_uncrosses;
    case "or-opt delta matches recompute" test_or_opt_delta_matches;
    case "nearest neighbor on the square" test_nearest_neighbor_square;
    case "cheapest insertion on the square" test_cheapest_insertion_square;
    case "convex hull of square + centre" test_convex_hull_square_plus_centre;
    case "hull insertion yields a valid tour" test_hull_insertion_valid_tour;
    case "2-opt descent reaches local optimum" test_two_opt_descent_improves;
    case "heuristic quality ordering" test_heuristic_ordering_on_uniform;
    case "or-opt pass never hurts" test_or_opt_pass_improves_or_keeps;
    case "2-opt restarts monotone" test_two_opt_restarts_monotone;
    case "adapter apply/revert roundtrip" test_adapter_roundtrip;
    case "adapter excludes the full reversal" test_adapter_moves_exclude_full_reversal;
    case "SA shortens a random tour" test_sa_beats_random_tour;
    case "tsplib roundtrip" test_io_roundtrip;
    case "tsplib parsing" test_io_parses_tsplib_style;
    case "tsplib rejects bad input" test_io_rejects_bad_input;
    case "tsplib rejects non-finite coordinates" test_io_rejects_non_finite;
    case "tsplib tolerates tabs and blanks" test_io_tolerates_tabs_and_blanks;
    case "tour agrees with a literal-reversal model" test_tour_model;
    QCheck_alcotest.to_alcotest prop_two_opt_keeps_permutation;
  ]
