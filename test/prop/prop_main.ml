(* Property-based test harness (runs under `dune runtest` like the
   unit suite).  QCHECK_SEED pins the qcheck generator seed, so
   `make test-stress` can sweep many seeds; unset, qcheck
   self-seeds randomly per run. *)

let rand =
  match Option.map int_of_string_opt (Sys.getenv_opt "QCHECK_SEED") with
  (* qcheck's generator API is built on Stdlib.Random.State, so the
     harness boundary must speak it; the properties themselves draw
     recipes and run walks through [Rng] streams only. *)
  | Some (Some seed) ->
      Some (Random.State.make [| seed |]) (* sa-lint: allow no-stdlib-random *)
  | Some None | None -> None

let to_case t = QCheck_alcotest.to_alcotest ?rand t

let () =
  Alcotest.run "sa-prop"
    [
      ("gfun", List.map to_case Prop_gfun.tests);
      ("stats-online", List.map to_case Prop_stats.tests);
      ("problems", List.map to_case Prop_problems.tests);
      ( "arrangement",
        Alcotest.test_case "small range straddles the table bound" `Quick
          Prop_arrangement.small_range_straddles_the_table_bound
        :: List.map to_case Prop_arrangement.tests );
    ]
