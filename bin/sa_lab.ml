(* sa_lab: command-line front end to the reproduction.

   Subcommands:
     tables     regenerate the paper's tables (selectable, scalable, CSV-able)
     run        the paper's walk on a netlist: any g-class, Figure 1 or 2 or
                rejectionless, JSONL trace / metrics, checkpoint/resume
                (Figure 1, SIGINT/SIGTERM safe), live telemetry, profile
     supervise  campaign driver: retries, backoff, quarantine, chaos faults
     portfolio  race or sweep the 21 g-classes on one instance
     top        live terminal view of a telemetry-enabled run
     generate   emit a random GOLA/NOLA instance in the textual format
     goto       run only the Goto heuristic on a netlist file
     info       summarize a netlist (degrees, densities, exact optimum if small)
     tsp        solve a TSPLIB EUC_2D or random instance
     partition  2-way (KL/FM/SA/g=1) or k-way (recursive FM) partition
     route      single-row channel routing with an ASCII channel
     floorplan  anneal a slicing floorplan of random blocks *)

open Cmdliner

let read_netlist path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Netlist.of_string text with
  | Ok nl -> Ok nl
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

(* Load a netlist, or print why not and exit 1. *)
let with_netlist path f =
  match read_netlist path with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok nl -> f nl

(* ---------------------------------------------------------------- *)
(* tables                                                            *)
(* ---------------------------------------------------------------- *)

let tables_cmd =
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR"
           ~doc:"Multiply every budget by $(docv) (smaller = faster, noisier).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")
  in
  let which =
    let ids = List.map (fun (e : Tables.entry) -> (e.id, e)) Tables.all in
    Arg.(value & pos_all (enum ids) Tables.all & info [] ~docv:"TABLE"
           ~doc:(Printf.sprintf
                   "Tables to produce, in the order given (default: all, in bench order). \
                    $(docv) must be %s; see the table index in DESIGN.md."
                   (Arg.doc_alts_enum ids)))
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.") in
  let run scale seed csv which =
    let config = { Linarr_tables.default_config with scale; seed } in
    let ctx =
      lazy
        (prerr_endline "building suites and tuning temperatures (section 4.2.1)...";
         Linarr_tables.make_context config)
    in
    List.iter
      (fun (e : Tables.entry) ->
        let t = e.build config ctx in
        print_string (if csv then Report.to_csv t else Report.render t))
      which;
    0
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's evaluation tables.")
    Term.(const run $ scale $ seed $ csv $ which)

(* ---------------------------------------------------------------- *)
(* the paper's walk: run, supervise, route --optimize              *)
(* ---------------------------------------------------------------- *)

(* A value no run can use (a negative budget, a zero base temperature)
   is a usage error at parse time, not an Invalid_argument from deep
   inside the library. *)
let checked conv ~must ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', must be %s" s must))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_from lo = checked Arg.int ~must:(Printf.sprintf ">= %d" lo) (fun n -> n >= lo)
let positive = checked Arg.float ~must:"> 0" (fun y -> y > 0.)

let netlist_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST"
         ~doc:"Netlist file in the textual format (see $(b,generate)).")

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print the run's engine statistics.")

let base_arg =
  Arg.(value & opt positive 1.0 & info [ "temperature"; "y" ] ~docv:"Y"
         ~doc:"Base temperature (geometric 0.9 shape for multi-temperature classes).")

(* The paper's experiment, as every walk subcommand takes it: a netlist,
   a g-class, a base temperature Y for its schedule, a budget and a
   seed.  Each subcommand picks its own budget. *)
type walk_args = { file : string; method_ : string; evals : int; base : float; seed : int }

let walk_args ~evals =
  let method_ =
    Arg.(value & opt string "Six Temperature Annealing" & info [ "method"; "m" ] ~docv:"NAME"
           ~doc:"g-function class name as in Table 4.1 (e.g. 'g = 1', 'Six Temperature Annealing', 'Cubic Diff').")
  in
  let evals =
    Arg.(value & opt (int_from 0) evals & info [ "evals"; "n" ] ~docv:"N"
           ~doc:"Perturbation budget.")
  in
  let make file method_ evals base seed = { file; method_; evals; base; seed } in
  Term.(const make $ netlist_arg $ method_ $ evals $ base_arg $ seed_arg)

type walk = { nl : Netlist.t; gfun : Gfun.t; schedule : Schedule.t; budget : Budget.t }

(* Load the netlist and resolve the class, or print why not and exit 1. *)
let with_walk a f =
  with_netlist a.file (fun nl ->
      match Gfun.find_by_name ~m:(Netlist.n_nets nl) a.method_ with
      | None ->
          Printf.eprintf "unknown method %S; see Table 4.1 for names\n" a.method_;
          1
      | Some gfun ->
          f { nl; gfun; schedule = Gfun.schedule gfun a.base;
              budget = Budget.Evaluations a.evals })

let start ~goto_start w rng =
  if goto_start then Goto.arrange w.nl else Arrangement.random rng w.nl

module Swap = Linarr_problem.Swap
let order_line arr =
  String.concat " " (Array.to_list (Array.map string_of_int (Arrangement.order arr)))

let print_walk ~initial ~stats (r : Arrangement.t Mc_problem.run) =
  Printf.printf "initial density: %d\n" initial;
  Printf.printf "best density:    %.0f\n" r.Mc_problem.best_cost;
  Printf.printf "final density:   %.0f\n" r.Mc_problem.final_cost;
  Printf.printf "order: %s\n" (order_line r.Mc_problem.best);
  if stats then Format.printf "%a@." Mc_problem.pp_stats r.Mc_problem.stats

let write_json path json =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* Write the optional output file [target] with [write], then go on
   with [k]; an unwritable path prints the OS message and exits 1
   instead, as an unwritable trace or checkpoint does. *)
let write_output target write k =
  match Option.iter write target with
  | () -> k ()
  | exception Sys_error msg ->
      prerr_endline msg;
      1

(* The counters a trace's events must reproduce.  The rejectionless
   engine never rejects; its [rejected] stat counts scan overhead and
   has no event counterpart. *)
let reconciled_counts strategy (s : Mc_problem.stats) =
  [
    ("evaluations", s.evaluations);
    ("improving", s.improving);
    ("lateral_accepted", s.lateral_accepted);
    ("uphill_accepted", s.uphill_accepted);
    ("temperatures_visited", s.temperatures_visited);
    ("descents", s.descents);
  ]
  @ if strategy = `Rejectionless then [] else [ ("rejected", s.rejected) ]

(* [inexact] names why the trace cannot reproduce the counters: a
   downsampled trace drops events, a resumed run's counters include the
   ticks before its resume point. *)
let reconcile ~strategy ~inexact stats path =
  match Obs.Jsonl.read_file path with
  | Error msg ->
      Printf.eprintf "trace re-read failed: %s\n" msg;
      1
  | Ok events -> (
      Printf.printf "trace: %d events in %s\n" (List.length events) path;
      match inexact with
      | Some why ->
          Printf.printf "trace: %s; skipping exact reconciliation\n" why;
          0
      | None -> (
          let derived = Mc_problem.stats_of_events events in
          let mismatches =
            List.filter_map
              (fun ((name, from_events), (_, from_stats)) ->
                if from_events = from_stats then None
                else
                  Some
                    (Printf.sprintf "%s: events say %d, stats say %d" name from_events
                       from_stats))
              (List.combine
                 (reconciled_counts strategy derived)
                 (reconciled_counts strategy stats))
          in
          match mismatches with
          | [] ->
              print_endline "trace: event counts reconcile with stats";
              0
          | ms ->
              List.iter (fun m -> Printf.eprintf "reconciliation mismatch: %s\n" m) ms;
              1))

(* Run [f] on the JSONL sink of [--trace] (thinned by [--downsample]),
   or on the null observer. *)
let with_trace trace_file downsample f =
  match trace_file with
  | None -> f Obs.Observer.null
  | Some path ->
      Obs.Jsonl.with_file path (fun sink ->
          f
            (match downsample with
            | Some cap -> Obs.Downsample.observer ~capacity:cap sink
            | None -> sink))

(* ---------------------------------------------------------------- *)
(* generate                                                          *)
(* ---------------------------------------------------------------- *)

let generate_cmd =
  let elements =
    Arg.(value & opt (int_from 2) 15 & info [ "elements"; "e" ] ~docv:"N"
           ~doc:"Circuit elements.")
  in
  let nets = Arg.(value & opt (int_from 0) 150 & info [ "nets" ] ~docv:"M" ~doc:"Nets.") in
  let multi =
    Arg.(value & flag & info [ "nola" ] ~doc:"Multi-pin nets (2-5 pins) instead of two-pin.")
  in
  let run elements nets multi seed =
    let rng = Rng.create ~seed in
    (* A NOLA net takes up to 5 pins, so fewer elements cannot hold one. *)
    match
      if multi then Netlist.random_nola rng ~elements ~nets ~min_pins:2 ~max_pins:5
      else Netlist.random_gola rng ~elements ~nets
    with
    | nl ->
        print_string (Netlist.to_string nl);
        0
    | exception Invalid_argument msg ->
        prerr_endline msg;
        1
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a random instance in the textual netlist format.")
    Term.(const run $ elements $ nets $ multi $ seed_arg)

let goto_cmd =
  let run file =
    with_netlist file (fun nl ->
        let arr = Goto.arrange nl in
        Printf.printf "density: %d\n" (Arrangement.density arr);
        Printf.printf "order: %s\n" (order_line arr);
        0)
  in
  Cmd.v (Cmd.info "goto" ~doc:"Run the [GOTO77] constructive heuristic.")
    Term.(const run $ netlist_arg)

(* ---------------------------------------------------------------- *)
(* tsp                                                               *)
(* ---------------------------------------------------------------- *)

let tsp_cmd =
  let file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE"
           ~doc:"TSPLIB EUC_2D instance; omit to use a random one.")
  in
  let cities =
    Arg.(value & opt (int_from 3) 60 & info [ "cities" ] ~docv:"N" ~doc:"Random-instance size.")
  in
  let method_ =
    Arg.(value
         & opt (enum [ ("nn", `Nn); ("insertion", `Insertion); ("hull", `Hull);
                       ("2opt", `Two_opt); ("sa", `Sa); ("g1", `G1) ]) `Hull
         & info [ "method"; "m" ] ~docv:"METHOD"
             ~doc:"nn, insertion, hull, 2opt (NN + descent), sa (six-temp), or g1.")
  in
  let evals =
    Arg.(value & opt (int_from 0) 30_000 & info [ "evals"; "n" ] ~docv:"N"
           ~doc:"Budget for the Monte Carlo methods.")
  in
  let show_tour = Arg.(value & flag & info [ "tour" ] ~doc:"Print the visiting order.") in
  let run file cities method_ evals seed show_tour =
    let instance =
      match file with
      | Some path -> Tsp_io.load path
      | None -> Ok (Tsp_instance.random_uniform (Rng.create ~seed) ~n:cities)
    in
    match instance with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok inst ->
        let rng = Rng.create ~seed:(seed + 1) in
        let tour =
          match method_ with
          | `Nn -> Tsp_heuristics.nearest_neighbor inst ~start:0
          | `Insertion -> Tsp_heuristics.cheapest_insertion inst
          | `Hull -> Tsp_heuristics.hull_insertion inst
          | `Two_opt ->
              let t = Tsp_heuristics.nearest_neighbor inst ~start:0 in
              ignore (Tsp_heuristics.two_opt_descent t);
              t
          | (`Sa | `G1) as m ->
              let start = Tour.random rng inst in
              let gfun, schedule =
                match m with
                | `Sa ->
                    ( Gfun.six_temp_annealing,
                      Temperature.suggest_schedule (module Tsp_problem) (Rng.copy rng) start )
                | `G1 -> (Gfun.g_one, Schedule.constant ~k:1 1.)
              in
              (Engine.or_raise
                 (Engine.run (module Tsp_problem) (Engine.figure1 ()) ~gfun ~schedule
                    ~budget:(Budget.Evaluations evals) rng start))
                .Mc_problem.best
        in
        Printf.printf "cities: %d\nlength: %.6f\n" (Tsp_instance.size inst) (Tour.length tour);
        if show_tour then
          Printf.printf "tour: %s\n"
            (String.concat " " (Array.to_list (Array.map string_of_int (Tour.order tour))));
        0
  in
  Cmd.v
    (Cmd.info "tsp" ~doc:"Solve a travelling-salesperson instance (TSPLIB EUC_2D or random).")
    Term.(const run $ file $ cities $ method_ $ evals $ seed_arg $ show_tour)

(* ---------------------------------------------------------------- *)
(* partition                                                         *)
(* ---------------------------------------------------------------- *)

let partition_cmd =
  let method_ =
    Arg.(value
         & opt (enum [ ("kl", `Kl); ("fm", `Fm); ("sa", `Sa); ("g1", `G1) ]) `Fm
         & info [ "method"; "m" ] ~docv:"METHOD"
             ~doc:"kl (graphs only), fm, sa (six-temp, KIRK83 schedule), or g1.")
  in
  let evals =
    Arg.(value & opt (int_from 0) 30_000 & info [ "evals"; "n" ] ~docv:"N"
           ~doc:"Monte Carlo budget.")
  in
  let kparts =
    Arg.(value & opt int 2 & info [ "parts"; "k" ] ~docv:"K"
           ~doc:"Number of parts (power of two). K > 2 uses recursive FM bisection.")
  in
  let run file method_ evals kparts seed =
    with_netlist file (fun nl ->
        if kparts <> 2 then (
          match Kway.partition (Rng.create ~seed) nl ~k:kparts with
          | r ->
              Printf.printf "parts: %d\nspanning nets: %d\nsizes: %s\n" r.Kway.k
                r.Kway.spanning_nets
                (String.concat " "
                   (Array.to_list (Array.map string_of_int (Kway.part_sizes r))));
              0
          | exception Invalid_argument msg ->
              prerr_endline msg;
              1)
        else (
          let rng = Rng.create ~seed in
          let start = Bipartition.random_balanced rng nl in
          match
            match method_ with
            | `Kl ->
                ignore (Kl.refine start);
                start
            | `Fm ->
                ignore (Fm.refine start);
                start
            | (`Sa | `G1) as m ->
                let gfun, schedule =
                  match m with
                  | `Sa -> (Gfun.six_temp_annealing, Schedule.kirkpatrick ())
                  | `G1 -> (Gfun.g_one, Schedule.constant ~k:1 1.)
                in
                (Engine.or_raise
                   (Engine.run (module Partition_problem) (Engine.figure1 ()) ~gfun ~schedule
                      ~budget:(Budget.Evaluations evals) rng start))
                  .Mc_problem.best
          with
          | part ->
              Printf.printf "cut: %d\nimbalance: %d\nside B:" (Bipartition.cut part)
                (Bipartition.imbalance part);
              for e = 0 to Netlist.n_elements nl - 1 do
                if Bipartition.side part e then Printf.printf " %d" e
              done;
              print_newline ();
              0
          | exception Invalid_argument msg ->
              prerr_endline msg;
              1))
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Balanced partition of a netlist (2-way methods, or k-way FM).")
    Term.(const run $ netlist_arg $ method_ $ evals $ kparts $ seed_arg)

(* ---------------------------------------------------------------- *)
(* route                                                             *)
(* ---------------------------------------------------------------- *)

let route_cmd =
  let optimize =
    Arg.(value & flag & info [ "optimize" ]
           ~doc:"Minimize density with g = 1 before routing (instead of the Goto order).")
  in
  let evals =
    Arg.(value & opt (int_from 0) 20_000 & info [ "evals"; "n" ] ~docv:"N"
           ~doc:"Budget when optimizing.")
  in
  let run file optimize evals seed =
    with_netlist file (fun nl ->
        let arr =
          if optimize then
            (Engine.or_raise
               (Engine.run (module Swap) ~delta_ops:Swap.delta_ops (Engine.figure1 ())
                  ~gfun:Gfun.g_one ~schedule:(Schedule.constant ~k:1 1.)
                  ~budget:(Budget.Evaluations evals) (Rng.create ~seed) (Goto.arrange nl)))
              .Mc_problem.best
          else Goto.arrange nl
        in
        let layout = Single_row.assign arr in
        (match Single_row.verify arr layout with
        | Ok () -> ()
        | Error msg -> failwith msg);
        Printf.printf "density %d -> %d tracks\n%s" (Arrangement.density arr)
          layout.Single_row.track_count
          (Single_row.render arr layout);
        0)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Single-row channel routing of a netlist (left-edge algorithm).")
    Term.(const run $ netlist_arg $ optimize $ evals $ seed_arg)

(* ---------------------------------------------------------------- *)
(* info                                                              *)
(* ---------------------------------------------------------------- *)

let info_cmd =
  let run file =
    with_netlist file (fun nl ->
        let n = Netlist.n_elements nl and m = Netlist.n_nets nl in
        Printf.printf "elements: %d\nnets: %d\n" n m;
        Printf.printf "graph (all two-pin): %b\n" (Netlist.is_graph nl);
        if n > 0 then begin
          let degrees = Array.init n (fun e -> float_of_int (Netlist.degree nl e)) in
          Printf.printf "degree: min %.0f, median %.0f, mean %.1f, max %.0f\n"
            (fst (Stats.min_max degrees)) (Stats.median degrees) (Stats.mean degrees)
            (snd (Stats.min_max degrees));
          Printf.printf "lightest element: %d\n" (Netlist.lightest_element nl)
        end;
        if m > 0 then begin
          let sizes = Array.init m (fun j -> float_of_int (Netlist.net_size nl j)) in
          Printf.printf "net size: min %.0f, mean %.1f, max %.0f\n"
            (fst (Stats.min_max sizes)) (Stats.mean sizes) (snd (Stats.min_max sizes))
        end;
        Printf.printf "identity-order density: %d\n"
          (Arrangement.density (Arrangement.create nl));
        Printf.printf "goto density: %d\n" (Goto.density nl);
        if Netlist.fits_cut_table nl then
          Printf.printf "exact optimal density: %d\n" (Linarr_exact.optimal_density nl);
        0)
  in
  Cmd.v (Cmd.info "info" ~doc:"Summarize a netlist file.") Term.(const run $ netlist_arg)

(* ---------------------------------------------------------------- *)
(* telemetry plumbing (run, portfolio, top)                          *)
(* ---------------------------------------------------------------- *)

(* Start the exposition server when --telemetry-port is given and
   guarantee it is torn down on every exit path (normal, abort,
   SIGINT/SIGTERM unwinding).  The bundle only observes the event
   stream, so results and reports are byte-identical either way. *)
let with_telemetry ?port ?pool_stats ~workers ~labels f =
  match port with
  | None -> f None
  | Some port ->
      let tele = Telemetry.create ?pool_stats ~workers ~labels () in
      let server =
        Telemetry_http.start ~port ~handler:(Telemetry.handler tele) ()
      in
      Printf.eprintf "telemetry: http://127.0.0.1:%d (/metrics /runs /healthz)\n%!"
        (Telemetry_http.port server);
      Fun.protect
        ~finally:(fun () -> Telemetry_http.stop server)
        (fun () -> f (Some tele))

let telemetry_port_arg =
  Arg.(value & opt (some int) None & info [ "telemetry-port" ] ~docv:"PORT"
         ~doc:"Serve live telemetry over HTTP on 127.0.0.1:$(docv) while the
               run is in flight: $(b,/metrics) (Prometheus text),
               $(b,/runs) (sa-lab/telemetry/v1 JSON), $(b,/healthz).
               Port 0 picks a free port (printed to stderr).  Results are
               byte-identical with or without this flag.")

(* ---------------------------------------------------------------- *)
(* run (the walk, checkpointable under figure1)                      *)
(* ---------------------------------------------------------------- *)

exception Interrupted

(* A run fingerprint pins a checkpoint to one exact run configuration;
   load refuses a checkpoint whose fingerprint differs (stale file from
   another netlist, method, seed, or budget). *)
let run_fingerprint nl a =
  Obs.Json.Obj
    [
      ("engine", Obs.Json.String "figure1");
      ("method", Obs.Json.String a.method_);
      ("evals", Obs.Json.Int a.evals);
      ("y", Obs.Json.String (Printf.sprintf "%h" a.base));
      ("seed", Obs.Json.Int a.seed);
      ("netlist_md5", Obs.Json.String (Digest.to_hex (Digest.string (Netlist.to_string nl))));
    ]

let run_cmd =
  let strategy =
    Arg.(value
         & opt (enum [ ("figure1", `Figure1); ("figure2", `Figure2);
                       ("rejectionless", `Rejectionless) ]) `Figure1
         & info [ "strategy" ] ~docv:"STRATEGY"
             ~doc:"figure1, figure2, or rejectionless.")
  in
  let goto_start =
    Arg.(value & flag & info [ "goto-start" ]
           ~doc:"Start from the Goto arrangement instead of a random one.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl"
           ~doc:"Write one JSON event per line to $(docv), then re-read the file
                 and reconcile its event counts against the engine's statistics.")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Collect and print the standard metrics registry (counters,
                 acceptance ratio per temperature, uphill-delta histogram,
                 phase spans).")
  in
  let downsample =
    Arg.(value & opt (some (int_from 2)) None & info [ "downsample" ] ~docv:"CAP"
           ~doc:"Thin the $(b,proposed) events written to the trace with the
                 stride-doubling rule at capacity $(docv) (other events pass
                 through).  The trace no longer reconciles exactly.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write a CRC-guarded resume snapshot to $(docv) every
                 $(b,--checkpoint-every) evaluations, at the end of the run,
                 and on SIGINT/SIGTERM (at the next safe point).")
  in
  let every =
    Arg.(value & opt (int_from 1) 1000 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Evaluations between checkpoints (default 1000).")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume from the $(b,--checkpoint) file; the continued run
                 reproduces the uninterrupted trajectory bit for bit.")
  in
  let profile =
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE.folded"
           ~doc:"Sample the engine span stack every 97th evaluation
                 (deterministic under a fixed seed) and write folded-stack
                 lines to $(docv) for flamegraph.pl / speedscope.")
  in
  let run a strategy goto_start trace_file metrics downsample checkpoint every resume
      stats telemetry_port profile =
    with_walk a (fun w ->
        if resume && checkpoint = None then begin
          prerr_endline "--resume needs --checkpoint FILE";
          2
        end
        else if checkpoint <> None && strategy <> `Figure1 then begin
          prerr_endline "--checkpoint needs --strategy figure1";
          2
        end
        else begin
          let codec = Linarr_problem.codec w.nl in
          let fingerprint = run_fingerprint w.nl a in
          (* Signals cannot safely write a file from the handler; they
             raise a flag that the next checkpoint-safe point turns into
             a final save plus a clean stop. *)
          let interrupted = ref false in
          let note_signal (_ : int) = interrupted := true in
          Sys.set_signal Sys.sigint (Sys.Signal_handle note_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle note_signal);
          let on_checkpoint path snap ~current ~best =
            Checkpoint.save_figure1 ~path ~codec ~fingerprint snap ~current ~best;
            if !interrupted then raise Interrupted
          in
          let restored =
            match (resume, checkpoint) with
            | true, Some path -> (
                match
                  Checkpoint.resume_figure1 ~path ~codec ~cost:Swap.cost
                    ~fingerprint
                with
                | Error e ->
                    prerr_endline (Checkpoint.load_error_message e);
                    Error 1
                | Ok (snap, current, best_state, rng) ->
                    Printf.printf "resuming from %s at evaluation %d\n" path
                      snap.Figure1.ticks;
                    Ok (Some (snap, best_state), current, rng))
            | _, _ ->
                let rng = Rng.create ~seed:a.seed in
                Ok (None, start ~goto_start w rng, rng)
          in
          match restored with
          | Error code -> code
          | Ok (resume, state, rng) -> (
              with_telemetry ?port:telemetry_port ~workers:1 ~labels:[ "run" ]
              @@ fun tele ->
              (* Report the run's original starting point, not the resume
                 point, so resumed output matches the uninterrupted run
                 byte-for-byte. *)
              let initial =
                match resume with
                | Some (snap, _) -> int_of_float snap.Figure1.initial_cost
                | None -> Arrangement.density state
              in
              let registry = if metrics then Some (Obs.Metrics.create ()) else None in
              let profiler =
                Option.map (fun path -> (path, Telemetry_profile.create ())) profile
              in
              let observer sink =
                Obs.Observer.tee
                  (sink
                  :: List.filter_map Fun.id
                       [
                         Option.map Obs.Metrics.observer registry;
                         Option.map
                           (fun t -> Telemetry.job_observer t ~worker:0 ~job:0 ~label:"run")
                           tele;
                         Option.map (fun (_, p) -> Telemetry_profile.observer p) profiler;
                       ])
              in
              (* Only Figure 1 checkpoints: the other strategies take no
                 checkpoint arguments. *)
              let engine_strategy =
                match strategy with
                | `Figure1 ->
                    Engine.figure1
                      ?checkpoint_every:(Option.map (fun _ -> every) checkpoint)
                      ?on_checkpoint:(Option.map on_checkpoint checkpoint) ?resume ()
                | `Figure2 -> Engine.Figure2
                | `Rejectionless -> Engine.Rejectionless
              in
              (* Densities are exact, so the delta path's event stream is
                 the recompute path's. *)
              match
                with_trace trace_file downsample (fun sink ->
                    Engine.run (module Swap) ~delta_ops:Swap.delta_ops
                      ~observer:(observer sink) engine_strategy ~gfun:w.gfun
                      ~schedule:w.schedule ~budget:w.budget rng state)
              with
              | Ok result ->
                  print_walk ~initial ~stats result;
                  Option.iter (Format.printf "%a@." Obs.Metrics.pp) registry;
                  write_output profiler
                    (fun (path, p) ->
                      Telemetry_profile.write_folded p path;
                      Printf.eprintf "profile: %d samples -> %s\n"
                        (Telemetry_profile.samples p) path)
                    (fun () ->
                      match trace_file with
                      | Some path ->
                          let inexact =
                            if downsample <> None then Some "downsampled"
                            else if resume <> None then Some "resumed"
                            else None
                          in
                          reconcile ~strategy ~inexact result.Mc_problem.stats path
                      | None -> 0)
              | Error { reason; partial } ->
                  Printf.eprintf "run aborted: %s\n" (Printexc.to_string reason);
                  Printf.eprintf "best density so far: %.0f (after %d evaluations)\n"
                    partial.Mc_problem.best_cost
                    partial.Mc_problem.stats.Mc_problem.evaluations;
                  1
              | exception Sys_error msg ->
                  (* An unwritable trace or checkpoint file. *)
                  prerr_endline msg;
                  1
              | exception Interrupted ->
                  Option.iter
                    (Printf.eprintf
                       "interrupted; checkpoint saved to %s (resume with --resume)\n")
                    checkpoint;
                  130)
        end)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Minimize the density of a netlist with a chosen method and
             strategy, optionally tracing its events, checkpointing (Figure 1)
             or resuming.")
    Term.(const run $ walk_args ~evals:20_000 $ strategy $ goto_start $ trace_file
          $ metrics $ downsample $ checkpoint $ every $ resume $ stats_arg
          $ telemetry_port_arg $ profile)

(* ---------------------------------------------------------------- *)
(* supervise                                                         *)
(* ---------------------------------------------------------------- *)

module Chaos_swap = Mc_problem.Chaos (Swap)

let supervise_cmd =
  let runs =
    Arg.(value & opt (int_from 0) 5 & info [ "runs" ] ~docv:"N" ~doc:"Runs in the campaign.")
  in
  let max_attempts =
    Arg.(value & opt int 3 & info [ "max-attempts" ] ~docv:"K"
           ~doc:"Attempts per run before quarantine.")
  in
  let base_delay =
    Arg.(value & opt float 0.01 & info [ "base-delay" ] ~docv:"S"
           ~doc:"Seconds before the first retry.")
  in
  let backoff =
    Arg.(value & opt float 2.0 & info [ "backoff" ] ~docv:"F"
           ~doc:"Delay multiplier per further retry.")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S"
           ~doc:"Per-run deadline in seconds (enforced post hoc).")
  in
  let chaos =
    Arg.(value & opt (some (enum Mc_problem.fault_names)) None & info [ "chaos" ] ~docv:"FAULT"
           ~doc:"Inject a fault into every run's problem: nan, inf, raise-cost,
                 raise-apply, raise-revert, or slow.")
  in
  let chaos_attempts =
    Arg.(value & opt int max_int & info [ "chaos-attempts" ] ~docv:"K"
           ~doc:"Inject the fault only into the first $(docv) attempts of each
                 run, so retries can succeed (default: all attempts).")
  in
  let report_file =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the sa-lab/supervisor-report/v1 JSON to $(docv).")
  in
  let run a runs max_attempts base_delay backoff deadline chaos chaos_attempts
      report_file =
    with_walk a (fun w ->
        match Supervisor.policy ~max_attempts ~base_delay ~backoff ?deadline () with
        | exception Invalid_argument msg ->
            prerr_endline msg;
            2
        | policy ->
            let work r ~attempt =
              (* Retries are not bitwise replays: each attempt derives its
                 own seed. *)
              let rng = Rng.create ~seed:(a.seed + (1000 * r) + attempt) in
              let state = start ~goto_start:false w rng in
              Chaos_swap.reset ();
              (match chaos with
              | Some fault when attempt <= chaos_attempts -> Chaos_swap.plan ~after:100 fault
              | Some _ | None -> ());
              match
                Engine.run (module Chaos_swap) (Engine.figure1 ()) ~gfun:w.gfun
                  ~schedule:w.schedule ~budget:w.budget rng state
              with
              | Ok result -> result.Mc_problem.best_cost
              | Error { reason; partial } ->
                  failwith
                    (Printf.sprintf "aborted at evaluation %d (best so far %.0f): %s"
                       partial.Mc_problem.stats.Mc_problem.evaluations
                       partial.Mc_problem.best_cost (Printexc.to_string reason))
            in
            let jobs =
              List.init runs (fun r ->
                  { Supervisor.label = Printf.sprintf "run-%d" r; work = work r })
            in
            let observer =
              Obs.Observer.of_fun (fun ev ->
                  match ev with
                  | Obs.Event.Retry { label; attempt; delay; reason } ->
                      Printf.eprintf
                        "retry %s: attempt %d failed (%s); backing off %.3fs\n%!"
                        label attempt reason delay
                  | Obs.Event.Quarantined { label; attempts; reason } ->
                      Printf.eprintf "quarantined %s after %d attempts: %s\n%!" label
                        attempts reason
                  | _ -> ())
            in
            let report = Supervisor.run ~observer policy jobs in
            List.iter
              (fun outcome ->
                match outcome with
                | Supervisor.Completed { label; attempts; value; seconds } ->
                    Printf.printf "%s: completed (attempt %d, %.3fs, best %.0f)\n" label
                      attempts seconds value
                | Supervisor.Quarantined { label; attempts; reason } ->
                    Printf.printf "%s: quarantined after %d attempts: %s\n" label
                      attempts reason)
              report.Supervisor.outcomes;
            Printf.printf "retries: %d, quarantined: %d/%d\n" report.Supervisor.retries
              report.Supervisor.quarantined runs;
            write_output report_file
              (fun path ->
                write_json path
                  (Supervisor.report_to_json ~value:(fun c -> Obs.Json.Float c) report))
              (fun () -> if report.Supervisor.quarantined < runs then 0 else 1))
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:"Drive a campaign of runs with retries, backoff, quarantine, and
             optional chaos fault injection.")
    Term.(const run $ walk_args ~evals:10_000
          $ runs $ max_attempts $ base_delay $ backoff $ deadline $ chaos
          $ chaos_attempts $ report_file)

(* ---------------------------------------------------------------- *)
(* portfolio                                                         *)
(* ---------------------------------------------------------------- *)

let portfolio_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"NETLIST"
           ~doc:"Netlist file to race the catalog on; omit to race on a
                 random TSP instance (see $(b,--tsp-cities)).")
  in
  let cities =
    Arg.(value & opt (int_from 3) 120 & info [ "tsp-cities" ] ~docv:"N"
           ~doc:"Size of the random TSP instance used when no netlist is
                 given (2-opt moves, incremental evaluation).")
  in
  let mode =
    Arg.(value & opt (enum [ ("race", `Race); ("sweep", `Sweep) ]) `Race
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"race (successive halving) or sweep (every class at the
                   full budget, the paper's protocol).")
  in
  let initial_evals =
    Arg.(value & opt (int_from 0) 2_000 & info [ "initial-evals"; "n" ] ~docv:"N"
           ~doc:"Per-job evaluation budget of the first racing rung
                 (doubles every rung); the whole budget in sweep mode.")
  in
  let domains =
    Arg.(value & opt (int_from 1) 1 & info [ "domains"; "j" ] ~docv:"D"
           ~doc:"Worker domains.  The standings and the report are
                 identical whatever $(docv) is.")
  in
  let deadline =
    Arg.(value & opt (some (int_from 0)) None & info [ "deadline-evals" ] ~docv:"N"
           ~doc:"Whole-race evaluation allowance, checked between rungs;
                 when it runs out the current leader wins.")
  in
  let report_file =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the sa-lab/portfolio-report/v1 JSON to $(docv).")
  in
  let run file cities mode initial_evals domains base seed deadline
      report_file telemetry_port =
    let jobs_or_error =
      match file with
      | Some path -> (
          match read_netlist path with
          | Error msg -> Error msg
          | Ok nl ->
              Ok
                (List.map
                   (fun gfun ->
                     Portfolio.Job.figure1 (module Swap) ~delta_ops:Swap.delta_ops
                       ~label:(Gfun.name gfun) ~gfun
                       ~schedule:(Gfun.schedule gfun base)
                       ~make_state:(fun rng -> Arrangement.random rng nl)
                       ())
                   (Gfun.catalog ~m:(Netlist.n_nets nl))))
      | None ->
          let inst = Tsp_instance.random_uniform (Rng.create ~seed) ~n:cities in
          Ok
            (List.map
               (fun gfun ->
                 Portfolio.Job.figure1
                   (module Tsp_problem)
                   ~delta_ops:Tsp_problem.delta_ops ~label:(Gfun.name gfun)
                   ~gfun
                   ~schedule:(Gfun.schedule gfun base)
                   ~make_state:(fun rng -> Tour.random rng inst)
                   ())
               (Gfun.catalog ~m:cities))
    in
    match jobs_or_error with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok jobs -> (
        let rng = Rng.create ~seed:(seed + 1) in
        let budget = Budget.Evaluations initial_evals in
        let workers = min domains (List.length jobs) in
        let pool_stats =
          Option.map
            (fun _ -> Pool.Stats.create ~clock:Obs.now ~workers ())
            telemetry_port
        in
        let report =
          with_telemetry ?port:telemetry_port ?pool_stats ~workers
            ~labels:(List.map Portfolio.Job.label jobs) (fun tele ->
              let observer = Option.map Telemetry.standings_observer tele in
              let job_observer = Option.map Telemetry.job_observer tele in
              match mode with
              | `Race ->
                  Portfolio.race ~domains ?observer ?job_observer ?pool_stats
                    ?deadline:
                      (Option.map (fun n -> Budget.Evaluations n) deadline)
                    rng ~initial_budget:budget jobs
              | `Sweep ->
                  Portfolio.sweep ~domains ?observer ?job_observer ?pool_stats
                    rng ~budget jobs)
        in
        List.iter
          (fun round ->
            Printf.printf "round %d (budget %d/job): %d jobs\n"
              round.Portfolio.index round.Portfolio.budget_evaluations
              (List.length round.Portfolio.results);
            List.iter
              (fun s ->
                Printf.printf "  %-32s best %10.2f  evals %7d%s\n"
                  s.Portfolio.label s.Portfolio.cost
                  s.Portfolio.evaluations
                  (match s.Portfolio.failure with
                  | None -> ""
                  | Some msg -> "  [failed: " ^ msg ^ "]"))
              round.Portfolio.results;
            match round.Portfolio.culled with
            | [] -> ()
            | culled ->
                Printf.printf "  culled: %s\n" (String.concat ", " culled))
          report.Portfolio.rounds;
        if report.Portfolio.stopped_early then
          print_endline "deadline reached; stopping early";
        Printf.printf "winner: %s (best %.2f, %d total evaluations)\n"
          report.Portfolio.winner.Portfolio.label
          report.Portfolio.winner.Portfolio.cost
          report.Portfolio.total_evaluations;
        write_output report_file
          (fun path -> write_json path (Portfolio.report_to_json report))
          (fun () -> 0))
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:"Race the paper's 21 acceptance-function classes against each
             other (successive halving or a full sweep), optionally on
             several domains.")
    Term.(const run $ file $ cities $ mode $ initial_evals $ domains $ base_arg
          $ seed_arg $ deadline $ report_file $ telemetry_port_arg)

(* ---------------------------------------------------------------- *)
(* top                                                               *)
(* ---------------------------------------------------------------- *)

(* Lenient JSON field accessors for the /runs snapshot: a field a
   newer server omits (or renders null) degrades to a placeholder
   instead of killing the dashboard. *)
let jint name j =
  match Obs.Json.member name j with
  | Some v -> Option.value ~default:0 (Obs.Json.to_int v)
  | None -> 0

let jfloat name j = Option.bind (Obs.Json.member name j) Obs.Json.to_float
let jstr name j =
  match Obs.Json.member name j with Some (Obs.Json.String s) -> s | _ -> ""

let top_render_runs buf prev now j =
  let runs =
    match Obs.Json.member "runs" j with Some (Obs.Json.List l) -> l | _ -> []
  in
  Printf.bprintf buf "%-28s %-8s %4s %4s %10s %10s %6s %9s\n" "JOB" "STATUS"
    "RUNG" "TEMP" "BEST" "CURRENT" "ACC%" "STEPS/S";
  List.iter
    (fun slot ->
      let label = jstr "label" slot in
      let evals = jint "evaluations" slot in
      let proposed = jint "proposed" slot in
      let accepted = jint "accepted" slot in
      let fmt_cost = function Some c -> Printf.sprintf "%10.2f" c | None -> "         -" in
      let acc =
        if proposed = 0 then "     -"
        else Printf.sprintf "%5.1f%%" (100. *. float_of_int accepted /. float_of_int proposed)
      in
      let rate =
        match Hashtbl.find_opt prev label with
        | Some (e0, t0) when now > t0 && evals >= e0 ->
            Printf.sprintf "%9.0f" (float_of_int (evals - e0) /. (now -. t0))
        | _ -> "        -"
      in
      Hashtbl.replace prev label (evals, now);
      Printf.bprintf buf "%-28s %-8s %4d %4d %s %s %s %s\n"
        (if String.length label > 28 then String.sub label 0 28 else label)
        (jstr "status" slot) (jint "rung" slot) (jint "temp" slot)
        (fmt_cost (jfloat "best_cost" slot))
        (fmt_cost (jfloat "current_cost" slot))
        acc rate)
    runs;
  match Obs.Json.member "pool" j with
  | None -> ()
  | Some pool ->
      let ints name =
        match Obs.Json.member name pool with
        | Some (Obs.Json.List l) ->
            List.map (fun v -> Option.value ~default:0 (Obs.Json.to_int v)) l
        | _ -> []
      in
      let floats name =
        match Obs.Json.member name pool with
        | Some (Obs.Json.List l) ->
            List.map (fun v -> Option.value ~default:0. (Obs.Json.to_float v)) l
        | _ -> []
      in
      let tasks = ints "tasks_run" and steals = ints "steals" in
      let depth = ints "queue_depth" in
      let busy = floats "busy_seconds" and idle = floats "idle_seconds" in
      Buffer.add_string buf "\nPOOL\n";
      List.iteri
        (fun w t ->
          let nth l = List.nth_opt l w in
          Printf.bprintf buf
            "  worker %d: tasks %4d  steals %4d  queued %4d  busy %8.2fs  idle %8.2fs\n"
            w t
            (Option.value ~default:0 (nth steals))
            (Option.value ~default:0 (nth depth))
            (Option.value ~default:0. (nth busy))
            (Option.value ~default:0. (nth idle)))
        tasks

(* The headline counter scraped from the Prometheus text, so top
   exercises both endpoints the way a real scrape pipeline does. *)
let top_render_metrics buf body =
  let prefix = "sa_lab_proposed_total " in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body) with
  | Some line ->
      let i = String.rindex line ' ' in
      Printf.bprintf buf "\nMETRICS  proposed %s\n"
        (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ()

let top_cmd =
  let port =
    Arg.(required & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"Telemetry port of the run to watch (the $(b,--telemetry-port)
                 of a live $(b,run) or $(b,portfolio)).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Telemetry host.")
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval"; "i" ] ~docv:"SECONDS"
           ~doc:"Seconds between refreshes.")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Render a single frame and exit (no screen clearing);
                 non-zero exit if the endpoints cannot be scraped.")
  in
  let run port host interval once =
    let prev = Hashtbl.create 32 in
    let frame n =
      match Telemetry_http.get ~host ~port "/runs" with
      | Error msg -> Error msg
      | Ok (status, _) when status <> 200 ->
          Error (Printf.sprintf "/runs: HTTP %d" status)
      | Ok (_, body) -> (
          match Obs.Json.parse body with
          | Error msg -> Error ("bad /runs JSON: " ^ msg)
          | Ok j ->
              let buf = Buffer.create 1024 in
              if not once then Buffer.add_string buf "\027[2J\027[H";
              Printf.bprintf buf "sa_lab top — %s:%d  (frame %d)\n\n" host port n;
              top_render_runs buf prev (Unix.gettimeofday ()) j;
              (match Telemetry_http.get ~host ~port "/metrics" with
              | Ok (200, metrics) -> top_render_metrics buf metrics
              | Ok _ | Error _ -> ());
              print_string (Buffer.contents buf);
              flush stdout;
              Ok ())
    in
    if once then (
      match frame 1 with
      | Ok () -> 0
      | Error msg ->
          prerr_endline msg;
          1)
    else begin
      Sys.catch_break true;
      (try
         let n = ref 0 in
         while true do
           incr n;
           (match frame !n with
           | Ok () -> ()
           | Error msg -> Printf.printf "waiting for telemetry: %s\n%!" msg);
           Unix.sleepf interval
         done
       with Sys.Break -> print_newline ());
      0
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal view of a telemetry-enabled run: per-job
             temperature, best/current cost, acceptance rate, steps/sec,
             and per-worker pool counters, refreshed in place.")
    Term.(const run $ port $ host $ interval $ once)

(* ---------------------------------------------------------------- *)
(* floorplan                                                         *)
(* ---------------------------------------------------------------- *)

let floorplan_cmd =
  let blocks =
    Arg.(value & opt (int_from 1) 15 & info [ "blocks"; "b" ] ~docv:"N" ~doc:"Number of blocks.")
  in
  let max_side =
    Arg.(value & opt (int_from 2) 10 & info [ "max-side" ] ~docv:"W"
           ~doc:"Block sides drawn uniformly from 2..$(docv).")
  in
  let evals =
    Arg.(value & opt (int_from 0) 20_000 & info [ "evals"; "n" ] ~docv:"N" ~doc:"Move budget.")
  in
  let run blocks max_side evals seed =
    let rng = Rng.create ~seed in
    let dims =
      Array.init blocks (fun _ ->
          (Rng.int_range rng 2 max_side, Rng.int_range rng 2 max_side))
    in
    let f = Floorplan.create dims in
    Printf.printf "blocks: %d, total block area: %d\n" blocks (Floorplan.total_block_area f);
    Printf.printf "initial area: %d (utilization %.0f%%)\n" (Floorplan.area f)
      (100. *. Floorplan.utilization f);
    let schedule = Temperature.suggest_schedule (module Floorplan.Problem) (Rng.copy rng) f in
    let r =
      Engine.or_raise
        (Engine.run (module Floorplan.Problem) (Engine.figure1 ()) ~gfun:Gfun.six_temp_annealing
           ~schedule ~budget:(Budget.Evaluations evals) rng f)
    in
    let best = r.Mc_problem.best in
    Floorplan.check best;
    let w, h = Floorplan.bounding_box best in
    Printf.printf "annealed area: %.0f = %d x %d (utilization %.0f%%)\n"
      r.Mc_problem.best_cost w h
      (100. *. Floorplan.utilization best);
    Printf.printf "expression: %s\n" (Floorplan.expression best);
    0
  in
  Cmd.v
    (Cmd.info "floorplan" ~doc:"Anneal a slicing floorplan of random blocks.")
    Term.(const run $ blocks $ max_side $ evals $ seed_arg)

let () =
  let info =
    Cmd.info "sa_lab" ~version:"1.0.0"
      ~doc:"Monte Carlo optimization lab reproducing 'Experiments with Simulated Annealing' (DAC 1985)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            tables_cmd; run_cmd; supervise_cmd; portfolio_cmd; top_cmd; generate_cmd; goto_cmd; tsp_cmd;
            partition_cmd; route_cmd; floorplan_cmd; info_cmd;
          ]))
