(* CLI golden corpus, wired into `dune runtest` via the cli-golden
   alias.

   usage: cli_golden SA_LAB.exe DATA_DIR

   Runs the sa_lab binary over the sample netlists with small budgets,
   one case per line of [cases] below, and prints one transcript to
   stdout: each case's command line, stdout, stderr and exit status,
   then the contents of every file the case leaves behind
   (checkpoints, traces, reports, profiles).  The rule diffs that
   transcript against the committed expected.txt, so any change to
   what the walk subcommands print, write or exit with fails the
   alias.  After an intended change, `dune promote` accepts the new
   transcript.

   Cases run in a fresh temporary directory holding copies of
   DATA_DIR/*.net plus a malformed bad.net and nan.tsp, so every path
   in the transcript is a bare file name.  Children get the caller's
   environment minus OCAMLRUNPARAM (a backtrace setting would change
   the text of uncaught exceptions).

   Only wall-clock values are masked, each replaced by <wall> and no
   line dropped ([mask] below): the "%.3fs" of supervise's completed
   lines, every JSON "seconds" value (trace span/run_end events,
   supervisor reports), the span.* histogram lines of --metrics and
   the run_seconds / evals_per_sec gauges.  Everything else is a pure
   function of the seeds and must match byte for byte. *)

let cases =
  [
    (* run: both descent strategies, --goto-start, --stats, the error
       paths (named for the subcommands whose walks these were) *)
    ("solve-metropolis", [ "run"; "nola15.net"; "-m"; "Metropolis"; "-n"; "2000"; "--seed"; "1"; "--stats" ], []);
    ("solve-figure2", [ "run"; "gola15.net"; "--strategy"; "figure2"; "-m"; "Six Temperature Annealing"; "-y"; "3"; "-n"; "2000"; "--seed"; "2" ], []);
    ("solve-goto-start", [ "run"; "nola15.net"; "--goto-start"; "-m"; "g = 1"; "-n"; "1000"; "--seed"; "4"; "--stats" ], []);
    ("solve-unknown-method", [ "run"; "nola15.net"; "-m"; "Bogus" ], []);
    ("solve-malformed-netlist", [ "run"; "bad.net"; "-m"; "g = 1" ], []);
    ("solve-missing-file", [ "run"; "missing.net"; "-m"; "g = 1" ], []);
    (* run --trace: every strategy, metrics, downsampling *)
    ("trace-figure1-metrics", [ "run"; "nola15.net"; "-m"; "Metropolis"; "-n"; "200"; "--seed"; "1"; "--trace"; "t1.jsonl"; "--metrics"; "--stats" ], [ "t1.jsonl" ]);
    ("trace-figure2-goto", [ "run"; "gola15.net"; "--strategy"; "figure2"; "-m"; "Six Temperature Annealing"; "-y"; "2"; "--goto-start"; "-n"; "200"; "--trace"; "t2.jsonl"; "--stats" ], [ "t2.jsonl" ]);
    ("trace-rejectionless", [ "run"; "nola15.net"; "--strategy"; "rejectionless"; "-m"; "Metropolis"; "-n"; "150"; "--seed"; "3"; "--trace"; "t3.jsonl"; "--metrics"; "--stats" ], [ "t3.jsonl" ]);
    ("trace-downsample", [ "run"; "nola15.net"; "-m"; "Metropolis"; "-n"; "400"; "--seed"; "5"; "--trace"; "t4.jsonl"; "--downsample"; "16"; "--stats" ], [ "t4.jsonl" ]);
    ("trace-metrics-only", [ "run"; "graph24.net"; "-m"; "g = 1"; "-n"; "500"; "--seed"; "6"; "--metrics"; "--stats" ], []);
    (* run: checkpoint, resume (traced too), stale resume, profile *)
    ("run-checkpoint", [ "run"; "gola15.net"; "-n"; "3000"; "--checkpoint"; "k.json"; "--checkpoint-every"; "700"; "--seed"; "3"; "--stats" ], [ "k.json" ]);
    ("run-resume", [ "run"; "gola15.net"; "-n"; "3000"; "--checkpoint"; "k.json"; "--resume"; "--seed"; "3"; "--stats" ], [ "k.json" ]);
    ("run-resume-trace", [ "run"; "gola15.net"; "-n"; "3000"; "--checkpoint"; "k.json"; "--resume"; "--seed"; "3"; "--trace"; "r.jsonl" ], [ "r.jsonl" ]);
    ("run-stale-resume", [ "run"; "gola15.net"; "-n"; "3000"; "--checkpoint"; "k.json"; "--resume"; "--seed"; "4" ], []);
    ("run-checkpoint-unwritable", [ "run"; "gola15.net"; "-n"; "2000"; "--checkpoint"; "no-dir/k.json"; "--checkpoint-every"; "700" ], []);
    ("run-trace-unwritable", [ "run"; "gola15.net"; "-n"; "100"; "--trace"; "no-dir/t.jsonl" ], []);
    ("run-resume-needs-checkpoint", [ "run"; "gola15.net"; "--resume" ], []);
    ("run-checkpoint-needs-figure1", [ "run"; "gola15.net"; "--strategy"; "figure2"; "--checkpoint"; "k2.json" ], [ "k2.json" ]);
    ("run-profile", [ "run"; "nola15.net"; "-m"; "Cubic Diff"; "-y"; "2"; "-n"; "2000"; "--seed"; "2"; "--profile"; "p.folded" ], [ "p.folded" ]);
    ("run-unknown-method", [ "run"; "nola15.net"; "-m"; "Nope" ], []);
    (* supervise: chaos retried, chaos quarantined, a bad policy *)
    ("supervise-chaos-retry", [ "supervise"; "nola15.net"; "--runs"; "3"; "-n"; "1000"; "--chaos"; "nan"; "--chaos-attempts"; "1"; "--base-delay"; "0.001"; "--report"; "sup.json" ], [ "sup.json" ]);
    ("supervise-chaos-quarantine", [ "supervise"; "gola15.net"; "--runs"; "2"; "-n"; "500"; "--chaos"; "raise-apply"; "--max-attempts"; "2"; "--base-delay"; "0.001"; "--report"; "sup2.json" ], [ "sup2.json" ]);
    ("supervise-bad-policy", [ "supervise"; "gola15.net"; "--max-attempts"; "0" ], []);
    ("supervise-unknown-method", [ "supervise"; "gola15.net"; "-m"; "Nope" ], []);
    (* the other subcommands sharing the loader, the seed flag or the
       report writer *)
    ("portfolio-race", [ "portfolio"; "nola15.net"; "--initial-evals"; "100"; "--seed"; "5"; "--report"; "pf.json" ], [ "pf.json" ]);
    ("portfolio-sweep", [ "portfolio"; "gola15.net"; "--mode"; "sweep"; "--initial-evals"; "150"; "--seed"; "6"; "--report"; "pfs.json" ], [ "pfs.json" ]);
    ("portfolio-tsp", [ "portfolio"; "--tsp-cities"; "12"; "-n"; "100"; "--seed"; "7" ], []);
    ("portfolio-deadline", [ "portfolio"; "nola15.net"; "--initial-evals"; "100"; "--deadline-evals"; "3000"; "--seed"; "5" ], []);
    ("route-optimize", [ "route"; "nola15.net"; "--optimize"; "-n"; "2000"; "--seed"; "1" ], []);
    ("route-goto", [ "route"; "gola15.net" ], []);
    ("goto", [ "goto"; "nola15.net" ], []);
    ("tsp-sa", [ "tsp"; "--cities"; "12"; "-m"; "sa"; "-n"; "500"; "--seed"; "1" ], []);
    ("tsp-g1", [ "tsp"; "--cities"; "12"; "-m"; "g1"; "-n"; "500"; "--seed"; "1" ], []);
    ("partition-sa", [ "partition"; "graph24.net"; "-m"; "sa"; "-n"; "2000"; "--seed"; "3" ], []);
    ("partition-g1", [ "partition"; "graph24.net"; "-m"; "g1"; "-n"; "2000"; "--seed"; "3" ], []);
    ("partition-kway", [ "partition"; "graph24.net"; "-k"; "4"; "--seed"; "1" ], []);
    ("partition-malformed-netlist", [ "partition"; "bad.net" ], []);
    ("info", [ "info"; "gola15.net" ], []);
    ("generate", [ "generate"; "-e"; "6"; "--nets"; "8"; "--nola"; "--seed"; "2" ], []);
    ("floorplan", [ "floorplan"; "-b"; "5"; "-n"; "300"; "--seed"; "1" ], []);
    (* values no run can use *)
    ("bad-trace-downsample", [ "run"; "nola15.net"; "-m"; "Metropolis"; "-n"; "100"; "--trace"; "t0.jsonl"; "--downsample"; "0" ], []);
    ("bad-run-evals", [ "run"; "nola15.net"; "--evals=-5" ], []);
    ("bad-run-y", [ "run"; "nola15.net"; "-y"; "0" ], []);
    ("bad-run-checkpoint-every", [ "run"; "nola15.net"; "-n"; "100"; "--checkpoint"; "k0.json"; "--checkpoint-every"; "0" ], []);
    ("bad-supervise-evals", [ "supervise"; "nola15.net"; "--runs"; "1"; "--base-delay"; "0.001"; "--evals=-5" ], []);
    ("bad-supervise-y", [ "supervise"; "nola15.net"; "-y"; "0" ], []);
    ("bad-supervise-runs", [ "supervise"; "nola15.net"; "-n"; "100"; "--runs=-1" ], []);
    ("bad-tsp-cities", [ "tsp"; "--cities"; "2" ], []);
    ("bad-tsp-evals", [ "tsp"; "--cities"; "12"; "-m"; "sa"; "--evals=-5" ], []);
    ("bad-partition-evals", [ "partition"; "graph24.net"; "-m"; "sa"; "--evals=-5" ], []);
    ("bad-route-evals", [ "route"; "nola15.net"; "--optimize"; "--evals=-5" ], []);
    ("bad-floorplan-evals", [ "floorplan"; "-b"; "5"; "--evals=-5" ], []);
    ("bad-floorplan-blocks", [ "floorplan"; "-b"; "0" ], []);
    ("bad-floorplan-max-side", [ "floorplan"; "--max-side"; "1" ], []);
    ("bad-portfolio-tsp-cities", [ "portfolio"; "--tsp-cities"; "2" ], []);
    ("bad-portfolio-initial-evals", [ "portfolio"; "nola15.net"; "--initial-evals=-1" ], []);
    ("bad-portfolio-deadline-evals", [ "portfolio"; "nola15.net"; "--deadline-evals=-3" ], []);
    ("bad-portfolio-domains", [ "portfolio"; "nola15.net"; "--domains"; "0" ], []);
    ("bad-portfolio-y", [ "portfolio"; "nola15.net"; "-y"; "0" ], []);
    ("bad-generate-elements", [ "generate"; "-e"; "0" ], []);
    ("bad-generate-nets", [ "generate"; "-e"; "5"; "--nets=-1" ], []);
    ("generate-nola-too-few-elements", [ "generate"; "-e"; "3"; "--nola" ], []);
    (* tables: a selection in the order given, every other table, CSV
       under another seed, the agreement table, and an unknown id (a
       usage error) *)
    ("tables-tuned", [ "tables"; "--scale"; "0.01"; "tuning"; "4.1"; "4.2b" ], []);
    ( "tables-rest",
      [ "tables"; "--scale"; "0.01"; "4.2a"; "4.2c"; "4.2d"; "E1"; "E2"; "E3"; "E5"; "E6"; "E7";
        "S1"; "A1"; "A3"; "A4"; "A5"; "A6"; "A7"; "A9" ],
      [] );
    ( "tables-csv",
      [ "tables"; "--scale"; "0.01"; "--seed"; "7"; "--csv"; "E4"; "A2"; "A8"; "tuning"; "E1";
        "E2"; "E3"; "E5"; "E6"; "E7"; "S1"; "A3"; "A5"; "A9" ],
      [] );
    ("tables-agreement", [ "tables"; "--scale"; "0.01"; "agreement" ], []);
    ("tables-unknown-id", [ "tables"; "--scale"; "0.01"; "4.3" ], []);
    (* a TSPLIB file with a non-finite coordinate is malformed *)
    ("tsp-nan-coordinate", [ "tsp"; "-f"; "nan.tsp"; "-m"; "2opt" ], []);
    (* an unwritable profile or report, like run-trace-unwritable: the
       walk or race still prints, then the OS message, exit 1 *)
    ("run-profile-unwritable", [ "run"; "nola15.net"; "-n"; "2000"; "--profile"; "no-dir/p.folded" ], []);
    ("portfolio-report-unwritable", [ "portfolio"; "--tsp-cities"; "12"; "-n"; "50"; "--report"; "no-dir/pf.json" ], []);
    ("supervise-report-unwritable", [ "supervise"; "nola15.net"; "-n"; "500"; "--runs"; "1"; "--report"; "no-dir/s.json" ], []);
  ]

(* The one documented substitution: wall-clock values become <wall>. *)
let mask =
  let rules =
    List.map
      (fun (re, template) -> (Str.regexp re, template))
      [
        ({|\(attempt [0-9]+, \)[0-9.]+s|}, {|\1<wall>s|});
        ({|"seconds":[^,}]*|}, {|"seconds":<wall>|});
        ({|^\(hist +span\.[^ ]+\) .*$|}, {|\1 <wall>|});
        ({|^\(gauge +\(run_seconds\|evals_per_sec\)\) .*$|}, {|\1 <wall>|});
      ]
  in
  fun text ->
    List.fold_left (fun t (re, tpl) -> Str.global_replace re tpl t) text rules

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let show_arg a =
  if a = "" || String.exists (fun c -> c = ' ' || c = '\'' || c = '"') a then
    Filename.quote a
  else a

let section name text =
  Printf.printf "--- %s\n%s" name (mask text);
  if text <> "" && text.[String.length text - 1] <> '\n' then
    print_string "\n[no newline at end]\n"

let run_case exe env (name, args, files) =
  Printf.printf "### %s\n$ sa_lab %s\n" name
    (String.concat " " (List.map show_arg args));
  let out = Unix.openfile "case.out" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile "case.err" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s
  in
  section "stdout" (read_file "case.out");
  section "stderr" (read_file "case.err");
  Printf.printf "--- %s\n" status;
  List.iter
    (fun f ->
      if Sys.file_exists f then section ("file " ^ f) (read_file f)
      else Printf.printf "--- file %s: absent\n" f)
    files;
  print_newline ()

let () =
  match Sys.argv with
  | [| _; exe; data |] ->
      let exe =
        if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
      in
      let nets =
        Sys.readdir data |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".net")
        |> List.sort compare
      in
      let texts = List.map (fun f -> (f, read_file (Filename.concat data f))) nets in
      let env =
        Unix.environment ()
        |> Array.to_list
        |> List.filter (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
        |> Array.of_list
      in
      let dir = Filename.temp_dir "cli_golden" "" in
      Sys.chdir dir;
      List.iter (fun (f, text) -> write_file f text) texts;
      write_file "bad.net" "not a netlist\n";
      write_file "nan.tsp" "NODE_COORD_SECTION\n1 0 0\n2 nan 1\n3 1 1\nEOF\n";
      List.iter (run_case exe env) cases;
      Array.iter Sys.remove (Sys.readdir ".");
      Sys.chdir Filename.parent_dir_name;
      Sys.rmdir dir
  | _ ->
      prerr_endline "usage: cli_golden SA_LAB.exe DATA_DIR";
      exit 2
