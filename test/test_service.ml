(* The sa_labd service layer, exercised without sockets: the routing
   function is called directly with constructed requests, so every
   admission outcome (202/400/404/405/429/503), the cancel paths, the
   quota clock, the snapshot janitor, graceful drain, and the chaos
   fault matrix run as fast deterministic unit tests.  The socket
   transport itself is covered by test_telemetry and the service-smoke
   alias. *)

let case name f = Alcotest.test_case name `Quick f

let req ?(headers = []) meth path =
  { Telemetry_http.Request.meth; path; version = "HTTP/1.1"; headers }

let body_of (resp : Telemetry_http.response) =
  match resp.Telemetry_http.body with
  | Telemetry_http.Fixed s -> s
  | Telemetry_http.Stream f ->
      (* Only safe on terminal jobs, where the log is closed and the
         stream callback returns after replaying it. *)
      let b = Buffer.create 256 in
      f (Buffer.add_string b);
      Buffer.contents b

let json_of resp =
  match Obs.Json.parse (String.trim (body_of resp)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "response body is not JSON: %s" e

let member name json =
  match Obs.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" name

let header (resp : Telemetry_http.response) name =
  List.assoc_opt name resp.Telemetry_http.headers

let check_status what want (resp : Telemetry_http.response) =
  Alcotest.check Alcotest.int what want resp.Telemetry_http.status

let tmp () = Filename.temp_dir "sa_service_test" ""

let config ?(runners = 0) ?(max_queue = 64) ?(quota_burst = 16)
    ?(checkpoint_every = 2_000) ?(max_budget = 10_000_000) ?(max_attempts = 3)
    ~dir () =
  {
    (Service.default_config ~dir) with
    runners;
    max_queue;
    quota_burst;
    checkpoint_every;
    max_budget;
    max_attempts;
    base_delay = 0.001;
  }

(* Run [f] against a live service, always draining afterwards so
   runner threads never outlive the test. *)
let with_service ?quota_now cfg f =
  let svc = Service.create ?quota_now cfg in
  Fun.protect ~finally:(fun () -> Service.drain svc) (fun () -> f svc)

let tsp_spec ?(budget = 200_000) ?(seed = 5) ?(extra = "") () =
  Printf.sprintf
    {|{"problem":"tsp","cities":40,"budget":%d,"seed":%d,"gfun":"Metropolis"%s}|}
    budget seed extra

let submit ?headers svc body =
  Service.handle svc (req ?headers "POST" "/jobs") ~body

let get svc path = Service.handle svc (req "GET" path) ~body:""

let await ?(tries = 3_000) what pred =
  let rec go tries =
    if pred () then ()
    else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go (tries - 1)
    end
  in
  go tries

let job_status svc id =
  match member "status" (json_of (get svc (Printf.sprintf "/jobs/%d" id))) with
  | Obs.Json.String s -> s
  | _ -> Alcotest.fail "job status is not a string"

let await_done svc id =
  await (Printf.sprintf "job %d" id) (fun () ->
      match job_status svc id with
      | "done" -> true
      | "failed" | "cancelled" -> Alcotest.failf "job %d ended badly" id
      | _ -> false)

(* ----------------------------- quota ----------------------------- *)

let test_quota_bucket () =
  let clock = ref 0. in
  let q = Quota.create ~now:(fun () -> !clock) ~burst:2 ~refill:1. () in
  Alcotest.check Alcotest.bool "first token" true
    (Quota.admit q ~client:"a" = Ok ());
  Alcotest.check Alcotest.bool "second token" true
    (Quota.admit q ~client:"a" = Ok ());
  (match Quota.admit q ~client:"a" with
  | Error s ->
      Alcotest.check Alcotest.bool "retry-after ~1s" true
        (s > 0.5 && s <= 1.0)
  | Ok () -> Alcotest.fail "burst of 2 admitted a third job");
  (* Other tenants are unaffected: buckets are per client. *)
  Alcotest.check Alcotest.bool "other client admits" true
    (Quota.admit q ~client:"b" = Ok ());
  clock := 1.;
  Alcotest.check Alcotest.bool "refilled after a second" true
    (Quota.admit q ~client:"a" = Ok ());
  Alcotest.check Alcotest.int "two clients seen" 2 (Quota.clients q)

let test_quota_bounded_buckets () =
  let clock = ref 0. in
  let q =
    Quota.create ~now:(fun () -> !clock) ~max_clients:2 ~burst:2 ~refill:1. ()
  in
  (* Two live (partially drained) buckets fill the table. *)
  Alcotest.check Alcotest.bool "a admits" true (Quota.admit q ~client:"a" = Ok ());
  Alcotest.check Alcotest.bool "b admits" true (Quota.admit q ~client:"b" = Ok ());
  Alcotest.check Alcotest.int "table at cap" 2 (Quota.clients q);
  (* Past the cap with no idle bucket, fresh names share one overflow
     bucket: cycling the x-client header mints neither fresh bursts
     nor memory. *)
  Alcotest.check Alcotest.bool "overflow token 1" true
    (Quota.admit q ~client:"c" = Ok ());
  Alcotest.check Alcotest.bool "overflow token 2" true
    (Quota.admit q ~client:"d" = Ok ());
  (match Quota.admit q ~client:"e" with
  | Error retry_after ->
      Alcotest.check Alcotest.bool "overflow Retry-After positive" true
        (retry_after > 0.)
  | Ok () -> Alcotest.fail "overflow bucket granted a third burst");
  Alcotest.check Alcotest.int "table still at cap" 2 (Quota.clients q);
  (* A bucket refilled to a full burst carries no throttling state, so
     it is evicted to make room for a genuinely new tenant. *)
  clock := 10.;
  Alcotest.check Alcotest.bool "new tenant after idle eviction" true
    (Quota.admit q ~client:"f" = Ok ());
  Alcotest.check Alcotest.bool "table stays bounded" true
    (Quota.clients q <= 2)

(* A client posts its burst plus [excess] under a frozen quota clock,
   so no bucket refills between posts: exactly [excess] bounce, each
   with a Retry-After. *)
let test_submit_over_quota () =
  List.iter
    (fun (burst, excess) ->
      let dir = tmp () in
      with_service
        ~quota_now:(fun () -> 0.)
        (config ~dir ~quota_burst:burst ())
        (fun svc ->
          for i = 1 to burst do
            check_status (Printf.sprintf "submit %d of %d" i burst) 202
              (submit svc (tsp_spec ()))
          done;
          for i = 1 to excess do
            let resp = submit svc (tsp_spec ()) in
            check_status (Printf.sprintf "over quota %d of %d" i excess) 429 resp;
            match header resp "Retry-After" with
            | Some s ->
                Alcotest.check Alcotest.bool "Retry-After is a positive int" true
                  (match int_of_string_opt s with Some n -> n >= 1 | None -> false)
            | None -> Alcotest.fail "429 without Retry-After"
          done;
          (* A different tenant still gets in. *)
          check_status "other client" 202
            (submit ~headers:[ ("x-client", "tenant-b") ] svc (tsp_spec ()));
          let _, _, rejected_quota, _, _ = Service.counters svc in
          Alcotest.check Alcotest.int
            (Printf.sprintf "burst %d: rejections counted" burst)
            excess rejected_quota))
    [ (1, 1); (16, 8) ]

(* -------------------------- backpressure ------------------------- *)

let test_queue_full () =
  let dir = tmp () in
  with_service (config ~dir ~max_queue:2 ()) (fun svc ->
      check_status "fits 1" 202 (submit svc (tsp_spec ()));
      check_status "fits 2" 202 (submit svc (tsp_spec ()));
      let resp = submit svc (tsp_spec ()) in
      check_status "queue full" 503 resp;
      let j = json_of resp in
      Alcotest.check Alcotest.bool "error says queue full" true
        (member "error" j = Obs.Json.String "queue full");
      Alcotest.check Alcotest.bool "body carries the depth" true
        (member "queue_depth" j = Obs.Json.Int 2);
      let _, _, _, rejected_queue, _ = Service.counters svc in
      Alcotest.check Alcotest.int "rejection counted" 1 rejected_queue;
      Alcotest.check Alcotest.int "queue depth" 2 (Service.queue_depth svc))

(* ---------------------------- routing ---------------------------- *)

let test_routing () =
  let dir = tmp () in
  with_service (config ~dir ()) (fun svc ->
      let check_405 meth path allow =
        let resp = Service.handle svc (req meth path) ~body:"" in
        check_status (meth ^ " " ^ path) 405 resp;
        Alcotest.check
          (Alcotest.option Alcotest.string)
          (path ^ " Allow") (Some allow) (header resp "Allow")
      in
      check_405 "PUT" "/healthz" "GET, HEAD";
      check_405 "DELETE" "/jobs" "GET, HEAD, POST";
      check_405 "POST" "/jobs/1" "GET, HEAD, DELETE";
      check_405 "DELETE" "/jobs/1/events" "GET, HEAD";
      check_status "unknown path" 404 (get svc "/nope");
      check_status "unknown job" 404 (get svc "/jobs/99");
      check_status "non-numeric id" 404 (get svc "/jobs/latest");
      let h = json_of (get svc "/healthz") in
      Alcotest.check Alcotest.bool "healthz ok" true
        (member "status" h = Obs.Json.String "ok");
      Alcotest.check Alcotest.bool "healthz queue depth" true
        (member "queue_depth" h = Obs.Json.Int 0))

let test_bad_specs () =
  let dir = tmp () in
  with_service (config ~dir ~max_budget:1_000 ()) (fun svc ->
      List.iter
        (fun (what, body) -> check_status what 400 (submit svc body))
        [
          ("garbage", "such json");
          ("unknown kind", {|{"problem":"sudoku","budget":10}|});
          ( "unknown gfun",
            {|{"problem":"tsp","cities":10,"budget":10,"gfun":"Magic"}|} );
          ("budget over cap", tsp_spec ~budget:2_000 ());
          ( "chaos on a race",
            tsp_spec ~budget:100
              ~extra:{|,"mode":"race","chaos":{"fault":"nan"}|} () );
          ( "unknown chaos fault",
            tsp_spec ~budget:100 ~extra:{|,"chaos":{"fault":"gremlins"}|} () );
          (* sa_lab supervise knows "slow"; the daemon does not take it. *)
          ( "slow chaos fault",
            tsp_spec ~budget:100 ~extra:{|,"chaos":{"fault":"slow"}|} () );
          ("cities out of range", {|{"problem":"tsp","cities":2,"budget":10}|});
        ])

(* The largest TSP job admission accepts.  An instance holds its
   coordinates only, so the job needs O(cities) memory. *)
let test_largest_tsp_job_completes () =
  let dir = tmp () in
  with_service (config ~dir ~runners:1 ()) (fun svc ->
      check_status "submit" 202
        (submit svc
           {|{"problem":"tsp","cities":20000,"budget":5000,"seed":3,"gfun":"Metropolis"}|});
      await_done svc 1)

(* ----------------------------- cancel ---------------------------- *)

let test_delete_queued () =
  let dir = tmp () in
  with_service (config ~dir ()) (fun svc ->
      check_status "submit" 202 (submit svc (tsp_spec ()));
      let resp = Service.handle svc (req "DELETE" "/jobs/1") ~body:"" in
      check_status "cancel queued" 200 resp;
      Alcotest.check Alcotest.string "terminal state" "cancelled"
        (job_status svc 1);
      (* The cancellation is durable: the manifest on disk agrees. *)
      (match Store.read_manifest ~dir 1 with
      | Ok m ->
          Alcotest.check Alcotest.bool "manifest cancelled" true
            (Obs.Json.member "status" m = Some (Obs.Json.String "cancelled"))
      | Error e -> Alcotest.failf "manifest: %s" e);
      (* Cancelling again is a no-op report, not an error. *)
      check_status "cancel twice" 200
        (Service.handle svc (req "DELETE" "/jobs/1") ~body:"");
      check_status "cancel missing job" 404
        (Service.handle svc (req "DELETE" "/jobs/7") ~body:""))

let test_delete_running () =
  let dir = tmp () in
  with_service (config ~dir ~runners:1 ()) (fun svc ->
      check_status "submit" 202 (submit svc (tsp_spec ~budget:5_000_000 ()));
      await "job 1 running" (fun () -> job_status svc 1 = "running");
      let resp = Service.handle svc (req "DELETE" "/jobs/1") ~body:"" in
      check_status "cancel running" 202 resp;
      Alcotest.check Alcotest.bool "answer says cancelling" true
        (member "status" (json_of resp) = Obs.Json.String "cancelling");
      await "job 1 cancelled" (fun () -> job_status svc 1 = "cancelled");
      (* Cancelled work has no future: its snapshots are reaped. *)
      Alcotest.check Alcotest.bool "snapshots reaped" true
        (Store.snapshots ~dir 1 = []))

(* ------------------------ snapshot janitor ----------------------- *)

let test_sweep_stale () =
  let dir = tmp () in
  let write name =
    Checkpoint.write ~path:(Filename.concat dir name) Obs.Json.Null
  in
  (* Two jobs' worth of cadence snapshots, plus files the janitor must
     never touch: a manifest, a temp file, a foreign name. *)
  List.iter write
    [
      "job-000001-000010.ckpt";
      "job-000001-000020.ckpt";
      "job-000001-000030.ckpt";
      "job-000001-000040.ckpt";
      "job-000002-000005.ckpt";
      "job-000001.manifest";
      "notes.ckpt.tmp";
    ];
  Out_channel.with_open_bin (Filename.concat dir "job-000001-junk.ckpt")
    (fun oc -> Out_channel.output_string oc "not a sequence");
  let deleted = Checkpoint.sweep_stale ~dir ~keep:2 in
  Alcotest.check (Alcotest.list Alcotest.string) "oldest beyond keep go"
    [
      Filename.concat dir "job-000001-000010.ckpt";
      Filename.concat dir "job-000001-000020.ckpt";
    ]
    deleted;
  let survives name = Sys.file_exists (Filename.concat dir name) in
  List.iter
    (fun name ->
      Alcotest.check Alcotest.bool (name ^ " survives") true (survives name))
    [
      "job-000001-000030.ckpt";
      "job-000001-000040.ckpt";
      "job-000002-000005.ckpt";
      "job-000001.manifest";
      "notes.ckpt.tmp";
      "job-000001-junk.ckpt";
    ];
  Alcotest.check Alcotest.bool "missing dir is empty, not an error" true
    (Checkpoint.sweep_stale ~dir:(Filename.concat dir "absent") ~keep:1 = []);
  Alcotest.check Alcotest.bool "keep < 1 rejected" true
    (match Checkpoint.sweep_stale ~dir ~keep:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----------------------- drain and durability -------------------- *)

(* The uninterrupted reference result for the standard durability
   spec, computed once and shared by every test that asserts
   bit-identical resume. *)
let durability_spec = tsp_spec ~budget:2_000_000 ~seed:11 ()

let reference_result =
  lazy
    (let dir = tmp () in
     with_service (config ~dir ~runners:1 ()) (fun svc ->
         check_status "reference submit" 202 (submit svc durability_spec);
         await_done svc 1;
         match Service.find_result svc 1 with
         | Some j -> Obs.Json.to_string j
         | None -> Alcotest.fail "reference job has no result"))

(* Boot a service over [dir], run the durability spec until [n]
   snapshots exist, drain mid-walk, and return with the job
   interrupted on disk. *)
let interrupt_after_snapshots ~dir n =
  let cfg = config ~dir ~runners:1 () in
  let svc = Service.create cfg in
  check_status "submit" 202 (submit svc durability_spec);
  await "snapshots" (fun () -> List.length (Store.snapshots ~dir 1) >= n);
  Service.drain svc;
  svc

let resume_and_check ~dir ~reference =
  with_service (config ~dir ~runners:1 ()) (fun svc ->
      await_done svc 1;
      (match Service.find_result svc 1 with
      | Some j ->
          Alcotest.check Alcotest.string "bit-identical to uninterrupted run"
            reference (Obs.Json.to_string j)
      | None -> Alcotest.fail "resumed job has no result");
      let _, _, _, _, resumed = Service.counters svc in
      Alcotest.check Alcotest.bool "resume counted" true (resumed >= 1);
      json_of (get svc "/healthz"))

let test_drain_resumes_bit_identically () =
  let reference = Lazy.force reference_result in
  let dir = tmp () in
  let svc = interrupt_after_snapshots ~dir 1 in
  (* Draining refuses new work with 503, and says so in healthz. *)
  check_status "submit during drain" 503 (submit svc durability_spec);
  Alcotest.check Alcotest.bool "draining flag" true (Service.draining svc);
  Alcotest.check Alcotest.bool "healthz says draining" true
    (member "status" (json_of (get svc "/healthz"))
    = Obs.Json.String "draining");
  Alcotest.check Alcotest.string "interrupted, not lost" "interrupted"
    (job_status svc 1);
  Alcotest.check Alcotest.bool "snapshots on disk" true
    (Store.snapshots ~dir 1 <> []);
  ignore (resume_and_check ~dir ~reference)

(* A re-queued interrupted job is the one queued job with snapshots.
   DELETE reaps them before publishing [cancelled], so a client that
   sees the job cancelled finds them gone: one thread cancels while
   this one polls the status. *)
let test_delete_requeued_interrupted () =
  let dir = tmp () in
  ignore (interrupt_after_snapshots ~dir 1);
  with_service (config ~dir ()) (fun svc ->
      Alcotest.check Alcotest.string "re-queued" "queued" (job_status svc 1);
      Alcotest.check Alcotest.bool "snapshots on disk" true
        (Store.snapshots ~dir 1 <> []);
      let answer = ref None in
      let canceller =
        Thread.create
          (fun () ->
            answer := Some (Service.handle svc (req "DELETE" "/jobs/1") ~body:""))
          ()
      in
      await "job 1 cancelled" (fun () -> job_status svc 1 = "cancelled");
      let left = Store.snapshots ~dir 1 in
      Thread.join canceller;
      Alcotest.check (Alcotest.list Alcotest.string) "no snapshots once cancelled" [] left;
      match !answer with
      | Some resp -> check_status "cancel re-queued" 200 resp
      | None -> Alcotest.fail "DELETE returned nothing")

let corrupt_file path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "{\"schema\":\"garbage\"")

let test_corrupt_snapshot_falls_back () =
  let reference = Lazy.force reference_result in
  let dir = tmp () in
  ignore (interrupt_after_snapshots ~dir 2);
  (* Torch the newest snapshot: resume must classify it corrupt and
     fall back to the older one, still bit-identically. *)
  (match Store.snapshots ~dir 1 with
  | newest :: _ -> corrupt_file newest
  | [] -> Alcotest.fail "no snapshots to corrupt");
  let health = resume_and_check ~dir ~reference in
  match member "corrupt_snapshots" health with
  | Obs.Json.Int n -> Alcotest.check Alcotest.bool "corruption counted" true (n >= 1)
  | _ -> Alcotest.fail "corrupt_snapshots is not an int"

let test_stale_snapshot_classified () =
  let reference = Lazy.force reference_result in
  let dir = tmp () in
  ignore (interrupt_after_snapshots ~dir 2);
  (* Overwrite the newest snapshot with a valid checkpoint from a
     different run configuration: CRC-clean but fingerprint-mismatched,
     so resume must classify it stale (not corrupt) and fall back. *)
  let foreign_dir = tmp () in
  (let svc = Service.create (config ~dir:foreign_dir ~runners:1 ()) in
   check_status "foreign submit" 202
     (submit svc (tsp_spec ~budget:2_000_000 ~seed:99 ()));
   await "foreign snapshot" (fun () -> Store.snapshots ~dir:foreign_dir 1 <> []);
   Service.drain svc);
  (match (Store.snapshots ~dir 1, Store.snapshots ~dir:foreign_dir 1) with
  | newest :: _, foreign :: _ ->
      let payload = In_channel.with_open_bin foreign In_channel.input_all in
      Out_channel.with_open_bin newest (fun oc ->
          Out_channel.output_string oc payload)
  | _ -> Alcotest.fail "missing snapshots");
  let health = resume_and_check ~dir ~reference in
  match member "stale_snapshots" health with
  | Obs.Json.Int n -> Alcotest.check Alcotest.bool "staleness counted" true (n >= 1)
  | _ -> Alcotest.fail "stale_snapshots is not an int"

(* A CRC-clean snapshot whose costs do not describe its states is
   corrupt too: the job's only snapshot, re-written through
   [Checkpoint.write] with one bit of [current_cost] flipped, must be
   counted and skipped, and the restarted job must report the bytes of
   the uninterrupted run. *)
let test_mispriced_snapshot_restarts () =
  let spec =
    match Job_spec.parse ~max_budget:10_000_000 (tsp_spec ~budget:20_000 ~seed:3 ()) with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let run ~dir ~stop =
    Runner.run ~dir ~id:1 ~checkpoint_every:4_000 ~max_attempts:1 ~base_delay:0.001
      ~stop spec
  in
  let result (r : Runner.report) =
    match r.Runner.status with
    | Runner.Done j -> Obs.Json.to_string j
    | Runner.Halted | Runner.Failed _ -> Alcotest.fail "job did not complete"
  in
  let reference = result (run ~dir:(tmp ()) ~stop:(fun () -> false)) in
  let dir = tmp () in
  (match (run ~dir ~stop:(fun () -> true)).Runner.status with
  | Runner.Halted -> ()
  | Runner.Done _ | Runner.Failed _ -> Alcotest.fail "job did not halt");
  let path =
    match Store.snapshots ~dir 1 with
    | [ path ] -> path
    | _ -> Alcotest.fail "expected exactly one snapshot"
  in
  let update name f = function
    | Obs.Json.Obj fields ->
        Obs.Json.Obj (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
    | _ -> Alcotest.failf "no object holding %S" name
  in
  let flip_bit = function
    | Obs.Json.String hex -> (
        match Checkpoint.float_of_hex hex with
        | Ok x ->
            Obs.Json.String
              (Checkpoint.hex_of_float
                 (Int64.float_of_bits (Int64.logxor 1L (Int64.bits_of_float x))))
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "current_cost is not a hex string"
  in
  (match Checkpoint.read ~path with
  | Ok payload ->
      Checkpoint.write ~path (update "snapshot" (update "current_cost" flip_bit) payload)
  | Error e -> Alcotest.fail e);
  let r = run ~dir ~stop:(fun () -> false) in
  Alcotest.check Alcotest.bool "not resumed" false r.Runner.resumed;
  Alcotest.check Alcotest.int "counted corrupt" 1 r.Runner.corrupt;
  Alcotest.check Alcotest.string "restart matches the uninterrupted run" reference
    (result r)

(* A race job's spec deadline is process CPU seconds from the race's
   start, checked between rungs: at 1e-6 s the first rung (21 jobs of
   budget / 8 = 1000 evaluations each) already overruns it, so the job
   finishes [Done] with the leader after one round, not [Halted]. *)
let test_race_deadline_stops_after_one_rung () =
  let spec =
    match
      Job_spec.parse ~max_budget:10_000_000
        (tsp_spec ~budget:8_000 ~seed:3 ~extra:{|,"mode":"race","deadline":1e-6|} ())
    with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let r =
    Runner.run ~dir:(tmp ()) ~id:1 ~checkpoint_every:4_000 ~max_attempts:1
      ~base_delay:0.001 ~stop:(fun () -> false) spec
  in
  match r.Runner.status with
  | Runner.Done report ->
      Alcotest.check Alcotest.bool "stopped early" true
        (member "stopped_early" report = Obs.Json.Bool true);
      (match member "rounds" report with
      | Obs.Json.List [ round ] ->
          Alcotest.check Alcotest.bool "first rung at 1000 evaluations" true
            (member "budget_evaluations" round = Obs.Json.Int 1_000)
      | _ -> Alcotest.fail "expected exactly one round")
  | Runner.Halted | Runner.Failed _ -> Alcotest.fail "race did not finish as done"

let test_events_stream_terminal () =
  let dir = tmp () in
  with_service (config ~dir ~runners:1 ()) (fun svc ->
      check_status "submit" 202 (submit svc (tsp_spec ()));
      await_done svc 1;
      let body = body_of (get svc "/jobs/1/events") in
      let lines =
        String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
      in
      Alcotest.check Alcotest.bool "stream has lines" true
        (List.length lines >= 3);
      List.iter
        (fun line ->
          match Obs.Json.parse line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "event line not JSON (%s): %s" e line)
        lines)

(* ------------------------------ chaos ---------------------------- *)

let chaos_spec ~fault ~attempts =
  tsp_spec ~budget:50_000
    ~extra:
      (Printf.sprintf {|,"chaos":{"fault":%S,"attempts":%d}|} fault attempts)
    ()

let test_chaos_transient_recovers () =
  (* Every injectable fault, one sabotaged attempt each: the
     supervisor must retry, resume from the pre-fault checkpoint, and
     finish the job. *)
  let dir = tmp () in
  with_service (config ~dir ~runners:2 ()) (fun svc ->
      let faults = [ "nan"; "inf"; "raise-cost"; "raise-apply"; "raise-revert" ] in
      List.iteri
        (fun i fault ->
          (* The typed fault survives the manifest round trip: the
             canonical JSON names it as submitted and re-parses to the
             same spec. *)
          (match Job_spec.parse ~max_budget:max_int (chaos_spec ~fault ~attempts:1) with
          | Error e -> Alcotest.failf "%s: %s" fault e
          | Ok spec -> (
              let json = Job_spec.to_json spec in
              Alcotest.check Alcotest.bool (fault ^ " named in canonical JSON") true
                (Option.bind (Obs.Json.member "chaos" json) (Obs.Json.member "fault")
                = Some (Obs.Json.String fault));
              match Job_spec.of_json_stored json with
              | Ok back ->
                  Alcotest.check Alcotest.bool (fault ^ " round-trips") true (back = spec)
              | Error e -> Alcotest.failf "%s: stored spec refused: %s" fault e));
          check_status ("submit " ^ fault) 202
            (submit svc (chaos_spec ~fault ~attempts:1));
          let id = i + 1 in
          await_done svc id;
          let job = json_of (get svc (Printf.sprintf "/jobs/%d" id)) in
          match member "attempts" job with
          | Obs.Json.Int n ->
              Alcotest.check Alcotest.bool (fault ^ " retried") true (n >= 2)
          | _ -> Alcotest.fail "attempts is not an int")
        faults)

let test_chaos_persistent_quarantines () =
  let dir = tmp () in
  with_service (config ~dir ~runners:1 ~max_attempts:2 ()) (fun svc ->
      check_status "submit" 202
        (submit svc (chaos_spec ~fault:"raise-cost" ~attempts:100));
      await "job 1 failed" (fun () -> job_status svc 1 = "failed");
      let job = json_of (get svc "/jobs/1") in
      match member "error" job with
      | Obs.Json.String e ->
          Alcotest.check Alcotest.bool "error surfaced" true
            (String.length e > 0)
      | _ -> Alcotest.fail "failed job has no error string")

let suite =
  [
    case "quota buckets refill on the injected clock" test_quota_bucket;
    case "quota bucket table is bounded against name cycling"
      test_quota_bounded_buckets;
    case "over-quota submits get 429 + Retry-After" test_submit_over_quota;
    case "full queue gets 503 with the depth" test_queue_full;
    case "routing: 404s, and 405s carry Allow" test_routing;
    case "malformed specs are admission-time 400s" test_bad_specs;
    case "a 20 000-city TSP job runs to done" test_largest_tsp_job_completes;
    case "DELETE cancels a queued job durably" test_delete_queued;
    case "DELETE stops a running job at a checkpoint" test_delete_running;
    case "DELETE reaps a re-queued interrupted job before cancelling"
      test_delete_requeued_interrupted;
    case "sweep_stale prunes by sequence, spares foreigners"
      test_sweep_stale;
    case "drain interrupts, 503s, and resumes bit-identically"
      test_drain_resumes_bit_identically;
    case "corrupt newest snapshot falls back to the older"
      test_corrupt_snapshot_falls_back;
    case "stale snapshot is classified, not resumed"
      test_stale_snapshot_classified;
    case "snapshot whose cost does not re-price is corrupt"
      test_mispriced_snapshot_restarts;
    case "race deadline stops after the first rung"
      test_race_deadline_stops_after_one_rung;
    case "terminal event stream is complete JSONL" test_events_stream_terminal;
    case "chaos: every transient fault retries to done"
      test_chaos_transient_recovers;
    case "chaos: persistent fault quarantines as failed"
      test_chaos_persistent_quarantines;
  ]
