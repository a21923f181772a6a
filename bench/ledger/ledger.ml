(* The performance ledger.  See README.md in this directory.

     ledger --workload NAME --seed N --seconds S --trace 0|1
            [--json OUT] [--append-history FILE]
     ledger --smoke --trace 0|1
     ledger compare [--benchmark FILE] A.json... -- B.json...

   A run prints one JSON summary as the last line of stdout: with
   --trace 0 the end-to-end metrics, measured untraced; with --trace 1
   the per-layer metrics of a separate traced run.  It exits non-zero
   when any output check fails. *)

let workloads = [ "paper-cli"; "linarr-n600"; "race-tsp1000" ]

type env = {
  data : string;
  sa_lab : string;
  sa_labd : string;
  run_dir : string;
  scale : float;  (** work per op; 1 for real runs, 1/50 in the smoke *)
}

(* The per-layer metrics of one traced phase: each layer's time net of
   the calibrated clock cost, and the engine's self time as the rest of
   the wall time, so the layers and self add up to the step by
   construction.  Times are in reference nanoseconds (see
   [Probe.canary_ref]), the traced and untraced phases each scaled by
   their own canary. *)
let layer_metrics ~clock_ns ~base ~(traced : Measure.sample array) =
  let evals = Array.fold_left (fun acc (s : Measure.sample) -> acc + s.evals) 0 traced in
  let f = Measure.to_reference traced in
  let layer (s : Probe.slot) =
    f *. (float_of_int s.ns -. (float_of_int s.calls *. clock_ns)) /. float_of_int evals
  in
  let step = f *. Measure.ns_per_eval traced in
  let layers = List.map (fun s -> (s.Probe.name, layer s)) Probe.slots in
  let self = step -. List.fold_left (fun acc (_, v) -> acc +. v) 0. layers in
  let moves = Probe.move.calls in
  Measure.expect "one proposal per budget tick" (moves = evals)
    (Printf.sprintf "%d proposals, %d ticks" moves evals);
  Measure.expect "layers fit inside the step" (self >= 0.)
    (Printf.sprintf "self %g ns/eval" self);
  let accepted = !Probe.commits + moves - Probe.settle.calls in
  List.map (fun (name, v) -> Measure.metric (name ^ ".ns_per_eval") "ns" v) layers
  @ [
      Measure.metric "engine.self_ns_per_eval" "ns" self;
      Measure.metric "engine.ns_per_eval" "ns" step;
      Measure.metric "engine.accept_ratio" "ratio" (float_of_int accepted /. float_of_int moves);
      Measure.metric "trace.clock_ns" "ns" clock_ns;
      Measure.metric "trace.overhead_frac" "ratio"
        ((step /. (Measure.to_reference base *. Measure.ns_per_eval base)) -. 1.);
    ]

let run_ops (w : Workloads.t) ~seconds ~trace =
  w.setup ();
  let seen = Hashtbl.create 64 in
  let attempted = ref 0 in
  let op ~traced k =
    incr attempted;
    let r = w.op ~traced k in
    (match Hashtbl.find_opt seen r.key with
    | None -> Hashtbl.add seen r.key r.digest
    | Some d ->
        Measure.expect "outputs bit-identical across repeats and tracing"
          (String.equal d r.digest) (Printf.sprintf "op %d" k));
    (r.key, r.evals)
  in
  let loop ?label ?(cycle = w.cycle) seconds = Measure.loop ?label ~cycle ~seconds ~min_ops:2 in
  ignore (loop ~label:"warm-up" ~cycle:1 (0.1 *. seconds) (op ~traced:false));
  if not trace then begin
    let samples = loop seconds (op ~traced:false) in
    let canary_ms = 1e3 *. Measure.median (Array.map (fun (s : Measure.sample) -> s.canary) samples) in
    (* Read before [finish] and the set-up timing, whose extra work and
       garbage are not the workload's. *)
    let peak_rss_mb = Measure.peak_rss_mb () in
    let detail = w.finish () in
    let setup_s = Measure.setup w.setup in
    {
      Measure.attempted = !attempted;
      failed = 0;
      metrics =
        [
          Measure.metric "evals_per_s" "1/s" (Measure.evals_per_s samples);
          Measure.metric "peak_rss_mb" "MB" peak_rss_mb;
          Measure.metric "setup_s" "s" setup_s;
        ];
      detail =
        ("wall.evals_per_s", Obs.Json.Float (Measure.evals_per_s ~wall:true samples))
        :: ("canary_ms", Obs.Json.Float canary_ms)
        :: detail;
    }
  end
  else begin
    let clock_ns = Probe.calibrate () in
    let base = loop (seconds /. 2.) (op ~traced:false) in
    Probe.reset ();
    let traced = loop ~label:"traced op" (seconds /. 2.) (op ~traced:true) in
    let metrics = layer_metrics ~clock_ns ~base ~traced in
    let slot_detail (s : Probe.slot) =
      (s.name, Obs.Json.Obj [ ("calls", Obs.Json.Int s.calls); ("ns", Obs.Json.Int s.ns) ])
    in
    {
      Measure.attempted = !attempted;
      failed = 0;
      metrics;
      detail = w.finish () @ List.map slot_detail Probe.slots;
    }
  end

let run_workload ~env ~name ~seed ~seconds ~trace =
  let w =
    match name with
    | "paper-cli" -> Workloads.paper_cli ~data:env.data ~sa_lab:env.sa_lab ~seed ~scale:env.scale
    | "linarr-n600" -> Workloads.linarr_n600 ~seed ~scale:env.scale
    | "race-tsp1000" -> Workloads.race_tsp1000 ~seed ~scale:env.scale
    | _ -> raise (Arg.Bad ("unknown workload " ^ name))
  in
  Probe.span name (fun () -> run_ops w ~seconds ~trace)

(* Tier-1 smoke: every workload at about 1/50 size, untraced and (with
   --trace 1) traced, then the sa_labd output check; every metric
   BENCHMARK.json names must come back with a finite value and its
   unit, and every output check must pass. *)
let smoke ~env ~benchmark ~trace =
  let doc =
    match Obs.Json.parse (In_channel.with_open_bin benchmark In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (benchmark ^ ": " ^ e)
  in
  let names key =
    match Obs.Json.member key doc with
    | Some (Obs.Json.List ms) ->
        List.filter_map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.String n), Some (Obs.Json.String u) -> Some (n, u)
            | _ -> None)
          ms
    | _ -> []
  in
  List.iter
    (fun name ->
      List.iter
        (fun (traced, key) ->
          let o = run_workload ~env ~name ~seed:1 ~seconds:0.3 ~trace:traced in
          List.iter
            (fun (metric, unit_) ->
              Measure.expect "every BENCHMARK.json metric reported"
                (List.exists
                   (fun (m : Measure.metric) ->
                     m.name = metric && m.unit_ = unit_ && Float.is_finite m.value)
                   o.metrics)
                (Printf.sprintf "%s %s (trace %b)" name metric traced);
              ())
            (names key);
          Printf.printf "smoke: %s trace=%b: %s\n%!" name traced (Measure.summary_line o))
        ((false, "end_to_end") :: (if trace then [ (true, "per_layer") ] else [])))
    workloads;
  Store.mkdir_p env.run_dir;
  let submitted, finished =
    Daemon_check.run ~exe:env.sa_labd ~data:env.data ~run_dir:env.run_dir ~seed:1
      ~scale:env.scale ~jobs:10
  in
  Printf.printf "smoke: sa_labd: %d of %d jobs finished\n%!" finished submitted;
  print_endline (if Measure.all_ok () then "ledger smoke: ok" else "ledger smoke: FAILED");
  exit (if Measure.all_ok () then 0 else 1)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let json = ref "" and history = ref "" and is_smoke = ref false in
  let benchmark = ref "BENCHMARK.json" and data = ref "data" in
  let sa_lab = ref "_build/default/bin/sa_lab.exe" in
  let sa_labd = ref "_build/default/bin/sa_labd.exe" in
  let run_dir = ref "_build/ledger_smoke" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run instead of end-to-end");
      ("--json", Arg.Set_string json, "FILE  write the detailed run document");
      ("--append-history", Arg.Set_string history, "FILE  append the run document as one line");
      ("--smoke", Arg.Set is_smoke, " every workload at 1/50 size, checked against BENCHMARK.json");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json (smoke)");
      ("--data", Arg.Set_string data, "DIR  instance files");
      ("--sa-lab", Arg.Set_string sa_lab, "EXE  the sa_lab binary");
      ("--sa-labd", Arg.Set_string sa_labd, "EXE  the sa_labd binary (smoke)");
      ("--run-dir", Arg.Set_string run_dir, "DIR  scratch space for daemon state (smoke)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "ledger [options]";
  let env scale = { data = !data; sa_lab = !sa_lab; sa_labd = !sa_labd; run_dir = !run_dir; scale } in
  if !is_smoke then smoke ~env:(env 0.02) ~benchmark:!benchmark ~trace:(!trace = 1)
  else begin
    if not (List.mem !workload workloads) then raise (Arg.Bad "--workload is required");
    let trace = !trace = 1 in
    let o = run_workload ~env:(env 1.) ~name:!workload ~seed:!seed ~seconds:!seconds ~trace in
    let doc = Measure.report ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace o in
    let write path flags fields =
      Out_channel.with_open_gen flags 0o644 path (fun oc ->
          output_string oc (Obs.Json.to_string (Obs.Json.Obj fields) ^ "\n"))
    in
    if !json <> "" then
      write !json [ Open_trunc; Open_creat; Open_wronly ] (doc @ [ ("spans", Probe.spans_json ()) ]);
    if !history <> "" then write !history [ Open_append; Open_creat; Open_wronly ] doc;
    print_endline (Measure.summary_line o);
    exit (if Measure.all_ok () then 0 else 1)
  end

let () =
  match Sys.argv with
  | [||] -> ()
  | argv when Array.length argv > 1 && argv.(1) = "compare" ->
      Verdict.main (List.tl (List.tl (Array.to_list argv)))
  | _ -> (
      try main ()
      with Arg.Bad msg ->
        prerr_endline ("ledger: " ^ msg);
        exit 2)
