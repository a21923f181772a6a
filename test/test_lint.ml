(* The sa_lint engine, exercised against the counterexample fixtures:
   every shipped syntactic rule must fire exactly once across the
   fixture tree, the typed rules must fire on the compiled fixture
   library (test/typed_fixtures) under a fixture policy, suppression
   directives must silence what they name, the incremental cache must
   provably re-analyze only changed files, the baseline ratchet must
   separate fresh findings from known ones, and the JSON report must
   match the checked-in golden byte-for-byte. *)

let case name f = Alcotest.test_case name `Quick f
let fixtures_root = "lint_fixtures"

let register () =
  Lint_rules.register_builtin ();
  Race_rules.register_builtin ()

(* Same configuration as `sa_lint --root test/lint_fixtures .` — the
   golden is regenerated with exactly that command. *)
let report () =
  register ();
  Lint.run ~rules:(Lint_rule.all ()) ~root:fixtures_root [ "." ]

let count_rule report name =
  List.length
    (List.filter
       (fun d -> d.Lint_diagnostic.rule = name)
       report.Lint.diagnostics)

let test_each_rule_fires_exactly_once () =
  let r = report () in
  List.iter
    (fun rule ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "%s fires exactly once" rule.Lint_rule.name)
        1
        (count_rule r rule.Lint_rule.name))
    (Lint_rules.builtin ());
  Alcotest.check Alcotest.int "no other diagnostics"
    (List.length (Lint_rules.builtin ()))
    (List.length r.Lint.diagnostics)

let test_suppressed_fixture_is_silent () =
  let r = report () in
  List.iter
    (fun d ->
      Alcotest.check Alcotest.bool
        "suppressed fixtures contribute no diagnostics" false
        (d.Lint_diagnostic.file = "fx_suppressed.ml"
        || d.Lint_diagnostic.file = "fx_allow_file.ml"))
    r.Lint.diagnostics;
  Alcotest.check Alcotest.bool "directives were counted" true
    (r.Lint.suppressions >= 4)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_json_matches_golden () =
  let expected = String.trim (read_file (fixtures_root ^ "/expected.json")) in
  let actual = Obs.Json.to_string (Lint.to_json (report ())) in
  Alcotest.check Alcotest.string "sa-lab/lint-report/v2 golden" expected actual

let test_json_roundtrips () =
  let text = Obs.Json.to_string (Lint.to_json (report ())) in
  match Obs.Json.parse text with
  | Error msg -> Alcotest.fail ("report JSON does not re-parse: " ^ msg)
  | Ok json -> (
      match Obs.Json.member "schema" json with
      | Some (Obs.Json.String "sa-lab/lint-report/v2") -> ()
      | _ -> Alcotest.fail "schema field wrong after roundtrip")

let test_skip_marker_respected () =
  (* Scanning the parent tree must not descend into the marked fixture
     directory; naming it explicitly must. *)
  let parent = Lint.scan_files ~root:"." [ "." ] in
  List.iter
    (fun p ->
      Alcotest.check Alcotest.bool "fixtures excluded from parent scan" false
        (String.length p >= String.length fixtures_root
        && String.sub p 0 (String.length fixtures_root) = fixtures_root))
    parent;
  let direct = Lint.scan_files ~root:fixtures_root [ "." ] in
  Alcotest.check Alcotest.int "explicit scan sees all fixture sources" 9
    (List.length direct)

let test_directive_parsing () =
  let check name expected text =
    Alcotest.check Alcotest.bool name true
      (Lint_suppress.parse_directive text = expected)
  in
  check "basic" (Some (`Allow [ "no-obj-magic" ])) " sa-lint: allow no-obj-magic ";
  check "several rules" (Some (`Allow [ "a"; "b-c" ])) "sa-lint: allow a b-c";
  check "file scoped"
    (Some (`Allow_file [ "no-stdlib-random" ]))
    "sa-lint: allow-file no-stdlib-random";
  check "not a directive" None "ordinary comment";
  check "allow with no rules is not a directive" None "sa-lint: allow";
  check "unknown verb" None "sa-lint: deny no-obj-magic"

let test_parse_error_surfaces () =
  (* An unparseable file must produce a parse-error diagnostic, not an
     exception or a silent skip. *)
  let dir = Filename.temp_file "sa_lint_fixture" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "broken.ml" in
  let oc = open_out path in
  output_string oc "let x = (\n";
  close_out oc;
  let r = Lint.run ~rules:(Lint_rules.builtin ()) ~root:dir [ "." ] in
  Sys.remove path;
  Sys.rmdir dir;
  Alcotest.check Alcotest.int "one diagnostic" 1 (List.length r.Lint.diagnostics);
  Alcotest.check Alcotest.int "counted as engine error" 1
    (Lint.parse_error_count r);
  match r.Lint.diagnostics with
  | [ d ] ->
      Alcotest.check Alcotest.string "parse-error rule" "parse-error"
        d.Lint_diagnostic.rule
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* ----------------------------------------------------------------- *)
(* The typed pass, against the compiled fixture library.  The test
   binary links sa_lint_typed_fixtures, so its .cmt files are
   guaranteed to exist next to this test's cwd in the build tree. *)

let fixture_policy =
  {
    Callgraph.pool_modules = [ "Fx_pool" ];
    pool_functions = [ "run"; "map" ];
    sink_patterns = [ "Fx_report.*"; "Fx_handler.*_to_json" ];
  }

let typed_report () =
  register ();
  Lint.run
    ~rules:(Race_rules.builtin ())
    ~typed:fixture_policy
    ~cmt_dirs:[ "typed_fixtures" ]
    ~root:"." [ "typed_fixtures" ]

let test_typed_rules_fire () =
  let r = typed_report () in
  Alcotest.check Alcotest.bool "typed modules were loaded" true
    (r.Lint.typed_modules >= 8);
  (* persist (via Fx_io.save) + shout (direct); flush_logs suppressed *)
  Alcotest.check Alcotest.int "blocking io in worker" 2
    (count_rule r "typed-blocking-io-in-worker");
  (* stamped (two hops down) + to_json + the handler sink; the
     directive-suppressed trace_to_json must NOT count *)
  Alcotest.check Alcotest.int "wallclock in report" 3
    (count_rule r "typed-wallclock-in-report");
  Alcotest.check Alcotest.int "ambient random in report" 2
    (count_rule r "typed-ambient-random-in-report");
  (* crunch only: bump_atomic in ok is synced *)
  Alcotest.check Alcotest.int "unsync mutable in worker" 1
    (count_rule r "typed-unsync-mutable-in-worker")

let test_typed_negatives_are_clean () =
  let r = typed_report () in
  List.iter
    (fun d ->
      Alcotest.check Alcotest.bool "Fx_report.pure is not flagged" false
        (let msg = d.Lint_diagnostic.message in
         let has sub =
           let ls = String.length sub and lm = String.length msg in
           let rec at i = i + ls <= lm && (String.sub msg i ls = sub || at (i + 1)) in
           at 0
         in
         has "Fx_report.pure" || has "bump_atomic" || has "flush_logs"
         || has "trace_to_json" (* suppressed by directive *)
         || has "summary_to_json" (* clean *)
         || has "Fx_handler.retry_after" (* effectful but not a sink *));
      Alcotest.check Alcotest.string "diagnostics use scanned paths"
        "typed_fixtures"
        (List.hd (String.split_on_char '/' d.Lint_diagnostic.file)))
    r.Lint.diagnostics

let test_typed_trace_has_call_path () =
  let r = typed_report () in
  let stamped =
    List.find_opt
      (fun d ->
        d.Lint_diagnostic.rule = "typed-wallclock-in-report"
        && d.Lint_diagnostic.file = "typed_fixtures/fx_report.ml"
        && d.Lint_diagnostic.line <= 6)
      r.Lint.diagnostics
  in
  match stamped with
  | None -> Alcotest.fail "no wallclock diagnostic for Fx_report.stamped"
  | Some d ->
      let symbols =
        List.map (fun f -> f.Lint_diagnostic.symbol) d.Lint_diagnostic.trace
      in
      Alcotest.check
        (Alcotest.list Alcotest.string)
        "witness chain walks the call graph down to the primitive"
        [ "Fx_deep.tick"; "Fx_clock.now"; "Unix.gettimeofday" ]
        symbols;
      (* and the diagnostic round-trips through JSON, trace included *)
      (match Lint_diagnostic.of_json (Lint_diagnostic.to_json d) with
      | Some d' ->
          Alcotest.check Alcotest.bool "diagnostic JSON roundtrip" true (d = d')
      | None -> Alcotest.fail "diagnostic JSON does not roundtrip")

let test_typed_suppression_applies () =
  (* fx_worker.ml carries an allow directive above flush_logs: the
     typed diagnostic for that site must be filtered like any
     syntactic one. *)
  let r = typed_report () in
  List.iter
    (fun d ->
      Alcotest.check Alcotest.bool "flush_logs site is suppressed" false
        (d.Lint_diagnostic.rule = "typed-blocking-io-in-worker"
        && d.Lint_diagnostic.file = "typed_fixtures/fx_worker.ml"
        && d.Lint_diagnostic.line >= 19
        && d.Lint_diagnostic.line <= 21))
    r.Lint.diagnostics;
  Alcotest.check Alcotest.bool "its directive was counted" true
    (r.Lint.suppressions >= 1)

let test_every_rule_has_a_fixture () =
  register ();
  let syntactic = report () and typed = typed_report () in
  let fired =
    List.map
      (fun d -> d.Lint_diagnostic.rule)
      (syntactic.Lint.diagnostics @ typed.Lint.diagnostics)
  in
  List.iter
    (fun rule ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "rule %s has at least one firing fixture"
           rule.Lint_rule.name)
        true
        (List.mem rule.Lint_rule.name fired))
    (Lint_rule.all ())

(* ----------------------------------------------------------------- *)
(* Incremental cache: a warm run recomputes nothing, touching one file
   recomputes exactly that file, and cached results (diagnostics and
   suppression tables alike) are byte-identical to fresh ones. *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_cache_reanalyzes_only_changed_files () =
  register ();
  let src = temp_dir "sa_lint_cache_src" in
  let cache_dir = temp_dir "sa_lint_cache_store" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf src;
      rm_rf cache_dir)
    (fun () ->
      write_file (Filename.concat src "a.ml") "let a = 1\n";
      write_file (Filename.concat src "b.ml")
        "let b : float = Obj.magic 1 (* sa-lint: allow no-obj-magic *)\n\n\n\
         let c : float = Obj.magic 2\n";
      let run () =
        let cache =
          Lint_cache.create ~dir:cache_dir ~version:(Lint_rule.fingerprint ())
        in
        Lint.run ~rules:(Lint_rules.builtin ()) ~cache ~root:src [ "." ]
      in
      let cold = run () in
      Alcotest.check Alcotest.int "cold run analyzes both files" 2
        cold.Lint.files_reanalyzed;
      Alcotest.check Alcotest.int "one unsuppressed finding" 1
        (List.length cold.Lint.diagnostics);
      let warm = run () in
      Alcotest.check Alcotest.int "warm run analyzes nothing" 0
        warm.Lint.files_reanalyzed;
      Alcotest.check Alcotest.bool "warm diagnostics identical" true
        (List.map
           (fun d -> Lint_diagnostic.to_json d)
           cold.Lint.diagnostics
        = List.map (fun d -> Lint_diagnostic.to_json d) warm.Lint.diagnostics);
      Alcotest.check Alcotest.int "warm run kept the suppression count"
        cold.Lint.suppressions warm.Lint.suppressions;
      write_file (Filename.concat src "a.ml") "let a = 2\n";
      let touched = run () in
      Alcotest.check Alcotest.int "touching one file re-analyzes only it" 1
        touched.Lint.files_reanalyzed)

let test_cache_invalidated_by_version () =
  register ();
  let src = temp_dir "sa_lint_cache_src" in
  let cache_dir = temp_dir "sa_lint_cache_store" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf src;
      rm_rf cache_dir)
    (fun () ->
      write_file (Filename.concat src "a.ml") "let a = 1\n";
      let run version =
        let cache = Lint_cache.create ~dir:cache_dir ~version in
        Lint.run ~rules:(Lint_rules.builtin ()) ~cache ~root:src [ "." ]
      in
      ignore (run "rules-v1");
      Alcotest.check Alcotest.int "same version: warm" 0
        (run "rules-v1").Lint.files_reanalyzed;
      Alcotest.check Alcotest.int "changed rule set: cold again" 1
        (run "rules-v2").Lint.files_reanalyzed)

(* ----------------------------------------------------------------- *)
(* Baseline ratchet. *)

let test_baseline_ratchet () =
  let r = report () in
  let diags = r.Lint.diagnostics in
  let b = Baseline.of_diagnostics diags in
  let marked, stats = Baseline.apply b diags in
  Alcotest.check Alcotest.int "own baseline: all matched"
    (List.length diags) stats.Baseline.matched;
  Alcotest.check Alcotest.int "own baseline: nothing fresh" 0
    stats.Baseline.fresh;
  Alcotest.check Alcotest.int "own baseline: nothing stale" 0
    stats.Baseline.stale;
  Alcotest.check Alcotest.bool "all marked baselined" true
    (List.for_all snd marked);
  (* A baseline missing one known finding: exactly that finding is
     fresh — the ratchet direction. *)
  let shrunk = Baseline.of_diagnostics (List.tl diags) in
  let _, stats = Baseline.apply shrunk diags in
  Alcotest.check Alcotest.int "shrunk baseline: one fresh" 1
    stats.Baseline.fresh;
  (* An empty baseline fails everything (fresh repo violation case). *)
  let _, stats = Baseline.apply Baseline.empty diags in
  Alcotest.check Alcotest.int "empty baseline: all fresh"
    (List.length diags) stats.Baseline.fresh;
  (* Stale budget is visible, so the ratchet can be kept tight. *)
  let _, stats = Baseline.apply b (List.tl diags) in
  Alcotest.check Alcotest.int "removed finding leaves stale budget" 1
    stats.Baseline.stale

let test_baseline_roundtrip () =
  let b = Baseline.of_diagnostics (report ()).Lint.diagnostics in
  let text = Obs.Json.to_string (Baseline.to_json b) in
  match Obs.Json.parse text with
  | Error msg -> Alcotest.fail ("baseline does not re-parse: " ^ msg)
  | Ok json -> (
      match Baseline.of_json json with
      | None -> Alcotest.fail "baseline of_json failed"
      | Some b' ->
          Alcotest.check Alcotest.string "baseline JSON roundtrip" text
            (Obs.Json.to_string (Baseline.to_json b')))

let suite =
  [
    case "each syntactic rule fires exactly once on its fixture"
      test_each_rule_fires_exactly_once;
    case "suppression directives silence their sites"
      test_suppressed_fixture_is_silent;
    case "JSON report matches the golden" test_json_matches_golden;
    case "JSON report re-parses" test_json_roundtrips;
    case "sa-lint.skip marker respected" test_skip_marker_respected;
    case "directive parsing" test_directive_parsing;
    case "parse errors become diagnostics" test_parse_error_surfaces;
    case "typed rules fire on the compiled fixtures" test_typed_rules_fire;
    case "typed negatives stay clean" test_typed_negatives_are_clean;
    case "typed diagnostics carry the witness call path"
      test_typed_trace_has_call_path;
    case "suppression applies to typed diagnostics"
      test_typed_suppression_applies;
    case "every registered rule has a fixture" test_every_rule_has_a_fixture;
    case "warm cache re-analyzes only changed files"
      test_cache_reanalyzes_only_changed_files;
    case "cache keys include the rule-set version"
      test_cache_invalidated_by_version;
    case "baseline ratchet separates fresh from known findings"
      test_baseline_ratchet;
    case "baseline JSON roundtrips" test_baseline_roundtrip;
  ]
