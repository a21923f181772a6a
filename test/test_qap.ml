(* Quadratic assignment: delta formula, incremental cost, descent, SA
   adapter. *)

let case name f = Alcotest.test_case name `Quick f

(* 3 facilities: flow only between 0 and 1; line distances. *)
let tiny () =
  Qap.create
    ~flows:[| [| 0; 5; 0 |]; [| 5; 0; 0 |]; [| 0; 0; 0 |] |]
    ~distances:[| [| 0; 1; 2 |]; [| 1; 0; 1 |]; [| 2; 1; 0 |] |]

let test_identity_cost () =
  let q = tiny () in
  (* facilities 0,1 adjacent: 2 * 5 * 1 = 10 (both directions) *)
  Alcotest.check Alcotest.int "cost" 10 (Qap.cost q);
  Qap.check q

let test_swap_changes_cost () =
  let q = tiny () in
  (* move facility 1 to location 2: distance(0's loc, 1's loc) = 2 *)
  Qap.swap q 1 2;
  Alcotest.check Alcotest.int "cost 20" 20 (Qap.cost q);
  Alcotest.check Alcotest.int "facility 1 at location 2" 2 (Qap.location_of q 1);
  Alcotest.check Alcotest.int "location 1 holds facility 2" 2 (Qap.facility_at q 1);
  Qap.check q

let test_swap_delta_matches () =
  let rng = Rng.create ~seed:1 in
  let q = Qap.random_instance rng ~n:9 ~max_entry:7 in
  for _ = 1 to 200 do
    let a, b = Rng.pair_distinct rng 9 in
    let predicted = Qap.swap_delta q a b in
    let before = Qap.cost q in
    Qap.swap q a b;
    Alcotest.check Alcotest.int "delta exact" (before + predicted) (Qap.cost q)
  done;
  Qap.check q

let test_swap_involution () =
  let rng = Rng.create ~seed:2 in
  let q = Qap.random_instance rng ~n:7 ~max_entry:9 in
  let before = Qap.cost q in
  Qap.swap q 2 5;
  Qap.swap q 2 5;
  Alcotest.check Alcotest.int "restored" before (Qap.cost q);
  Qap.check q

let test_asymmetric_instance () =
  (* asymmetric flows exercise both direction terms of the delta *)
  let q =
    Qap.create
      ~flows:[| [| 0; 3; 1 |]; [| 0; 0; 2 |]; [| 4; 0; 0 |] |]
      ~distances:[| [| 0; 2; 3 |]; [| 1; 0; 1 |]; [| 2; 2; 0 |] |]
  in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    let a, b = Rng.pair_distinct rng 3 in
    let predicted = Qap.swap_delta q a b in
    let before = Qap.cost q in
    Qap.swap q a b;
    Alcotest.check Alcotest.int "asymmetric delta exact" (before + predicted) (Qap.cost q)
  done;
  Qap.check q

let test_validation () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Qap.create ~flows:[||] ~distances:[||]);
  invalid (fun () ->
      Qap.create ~flows:[| [| 0; 1 |] |] ~distances:[| [| 0; 1 |]; [| 1; 0 |] |]);
  invalid (fun () ->
      Qap.create ~flows:[| [| 1; 0 |]; [| 0; 0 |] |] ~distances:[| [| 0; 1 |]; [| 1; 0 |] |]);
  invalid (fun () ->
      Qap.create ~flows:[| [| 0; -1 |]; [| 0; 0 |] |] ~distances:[| [| 0; 1 |]; [| 1; 0 |] |])

let test_set_assignment () =
  let q = tiny () in
  Qap.set_assignment q [| 2; 1; 0 |];
  Alcotest.check Alcotest.int "facility 0 at location 2" 2 (Qap.location_of q 0);
  (* 0 at loc 2, 1 at loc 1: distance 1, cost 10 again *)
  Alcotest.check Alcotest.int "cost" 10 (Qap.cost q);
  Qap.check q;
  match Qap.set_assignment q [| 0; 0; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-permutation accepted"

let test_linarr_instance () =
  let q = Qap.linarr_instance ~flows:[| [| 0; 1; 0 |]; [| 1; 0; 0 |]; [| 0; 0; 0 |] |] in
  Alcotest.check Alcotest.int "adjacent flow" 2 (Qap.cost q);
  Qap.swap q 1 2;
  Alcotest.check Alcotest.int "stretched to distance 2" 4 (Qap.cost q)

let test_descent_reaches_local_opt () =
  let rng = Rng.create ~seed:4 in
  let q = Qap.random_instance rng ~n:10 ~max_entry:9 in
  Qap.set_assignment q (Rng.permutation rng 10);
  let before = Qap.cost q in
  let applied = Qap.descent q in
  Alcotest.check Alcotest.bool "applied swaps" true (applied > 0);
  Alcotest.check Alcotest.bool "improved" true (Qap.cost q <= before);
  for a = 0 to 8 do
    for b = a + 1 to 9 do
      Alcotest.check Alcotest.bool "no improving swap left" true (Qap.swap_delta q a b >= 0)
    done
  done;
  Qap.check q

let test_adapter_and_sa () =
  let rng = Rng.create ~seed:5 in
  let q = Qap.random_instance rng ~n:12 ~max_entry:9 in
  Qap.set_assignment q (Rng.permutation rng 12);
  let initial = Qap.cost q in
  let module E = Figure1.Make (Qap.Problem) in
  let schedule = Temperature.suggest_schedule (module Qap.Problem) (Rng.copy rng) q in
  let p =
    E.params ~gfun:Gfun.six_temp_annealing ~schedule ~budget:(Budget.Evaluations 8000) ()
  in
  let r = E.run rng p q in
  Alcotest.check Alcotest.bool "SA improves" true
    (int_of_float r.Mc_problem.best_cost < initial);
  Qap.check q;
  Qap.check r.Mc_problem.best;
  let moves = List.of_seq (Qap.Problem.moves q) in
  Alcotest.check Alcotest.int "12 choose 2 moves" 66 (List.length moves)

let prop_cost_consistent =
  QCheck.Test.make ~name:"qcheck: QAP incremental cost survives random walks"
    (QCheck.make
       QCheck.Gen.(
         int_range 2 10 >>= fun n ->
         int >|= fun seed -> (n, seed)))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let q = Qap.random_instance rng ~n ~max_entry:9 in
      for _ = 1 to 30 do
        let a, b = Rng.pair_distinct rng n in
        Qap.swap q a b
      done;
      match Qap.check q with () -> true | exception Failure _ -> false)

let suite =
  [
    case "identity cost" test_identity_cost;
    case "swap changes cost and mappings" test_swap_changes_cost;
    case "swap delta exact (random symmetric)" test_swap_delta_matches;
    case "swap is an involution" test_swap_involution;
    case "asymmetric deltas exact" test_asymmetric_instance;
    case "validation" test_validation;
    case "set_assignment" test_set_assignment;
    case "line-distance instance" test_linarr_instance;
    case "descent reaches a local optimum" test_descent_reaches_local_opt;
    case "adapter + SA end to end" test_adapter_and_sa;
    QCheck_alcotest.to_alcotest prop_cost_consistent;
  ]
