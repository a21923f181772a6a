(* sa_labd smoke, wired into `dune runtest` via the service-smoke
   alias.  Drives the real daemon binary (path arrives as argv 1 from
   the dune rule) through its whole durability story:

   - phase 1: boot on a fresh state directory with an ephemeral port,
     submit a small TSP job over a real socket, follow its JSONL event
     stream, and record the final report;
   - phase 2: concurrent tenants on the same daemon — client threads,
     each with its own x-client, submit small TSP jobs over real
     sockets (retrying on 429/503) and every job must reach done;
     then SIGTERM, and require exit 0 (the graceful-drain contract);
   - phase 3: the phase-1 job on a second directory, SIGKILL the
     daemon as soon as a cadence checkpoint exists, restart over the
     directory, and require the resumed job's report to be
     byte-identical to the uninterrupted phase-1 report, with /healthz
     counting the resume. *)

(* Daemons spawned and not yet reaped; a failing smoke kills them so
   none outlives it. *)
let live = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("service-smoke: " ^ msg);
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
      exit 1)
    fmt

let reap pid =
  live := List.filter (( <> ) pid) !live;
  snd (Unix.waitpid [] pid)

let job_body =
  {|{"problem":"tsp","cities":50,"budget":3000000,"seed":23,"gfun":"Metropolis"}|}

let spawn exe ~dir =
  let port_file = Store.port_path ~dir in
  (* A SIGKILLed daemon leaves its old port file behind; drop it so we
     wait for the fresh daemon's announcement, not a stale port. *)
  (try Sys.remove port_file with Sys_error _ -> ());
  let pid =
    Unix.create_process exe
      [| exe; "--state-dir"; dir; "--runners"; "1"; "--checkpoint-every"; "2000" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  live := pid :: !live;
  let rec wait_port tries =
    if tries = 0 then fail "daemon on %s never wrote its port file" dir
    else
      match
        let ic = open_in port_file in
        let line = input_line ic in
        close_in ic;
        int_of_string_opt (String.trim line)
      with
      | Some port -> port
      | None | (exception Sys_error _) | (exception End_of_file) ->
          Thread.delay 0.05;
          wait_port (tries - 1)
  in
  (pid, wait_port 200)

let get ~port path =
  match Telemetry_http.get ~port path with
  | Ok (status, body) -> (status, body)
  | Error e -> fail "GET %s: %s" path e

(* POST a job; with [retry], a 429 (quota) or 503 (queue full) is
   retried after a short pause instead of failing the smoke. *)
let submit ?(retry = false) ?(headers = []) ?(body = job_body) ~port () =
  let rec go () =
    match Telemetry_http.request ~meth:"POST" ~port ~headers ~body "/jobs" with
    | Ok (202, _, answer) -> (
        match Obs.Json.parse answer with
        | Ok json -> (
            match Obs.Json.member "id" json with
            | Some (Obs.Json.Int id) -> id
            | _ -> fail "POST /jobs answered 202 without an id")
        | Error e -> fail "POST /jobs: bad body: %s" e)
    | Ok ((429 | 503), _, _) when retry ->
        Thread.delay 0.01;
        go ()
    | Ok (status, _, answer) -> fail "POST /jobs: status %d, body %s" status answer
    | Error e -> fail "POST /jobs: %s" e
  in
  go ()

let await_result ~port id =
  let path = Printf.sprintf "/jobs/%d" id in
  let rec go tries =
    if tries = 0 then fail "job %d never finished" id
    else
      let status, body = get ~port path in
      if status <> 200 then fail "GET %s: status %d" path status;
      match Obs.Json.parse body with
      | Error e -> fail "GET %s: bad JSON: %s" path e
      | Ok json -> (
          match Obs.Json.member "status" json with
          | Some (Obs.Json.String "done") -> (
              match Obs.Json.member "result" json with
              | Some result -> Obs.Json.to_string result
              | None -> fail "job %d is done but has no result" id)
          | Some (Obs.Json.String ("failed" | "cancelled")) ->
              fail "job %d ended badly: %s" id body
          | _ ->
              Thread.delay 0.05;
              go (tries - 1))
  in
  go 2_000

let terminate pid =
  Unix.kill pid Sys.sigterm;
  match reap pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "daemon exited %d after SIGTERM, want 0" n
  | Unix.WSIGNALED s -> fail "daemon died on signal %d after SIGTERM" s
  | Unix.WSTOPPED _ -> fail "daemon stopped rather than exiting"

let () =
  let exe =
    match Sys.argv with
    | [| _; exe |] -> exe
    | _ -> fail "usage: service_smoke SA_LABD_EXE"
  in
  (* Phase 1: uninterrupted reference run plus the streaming check. *)
  let dir1 = Filename.temp_dir "sa_labd_smoke1" "" in
  let pid1, port1 = spawn exe ~dir:dir1 in
  let id1 = submit ~port:port1 () in
  let reference = await_result ~port:port1 id1 in
  (let status, body =
     match
       Telemetry_http.request ~meth:"GET" ~port:port1
         (Printf.sprintf "/jobs/%d/events" id1)
     with
     | Ok (status, _, body) -> (status, body)
     | Error e -> fail "GET events: %s" e
   in
   if status <> 200 then fail "GET events: status %d" status;
   let lines =
     String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
   in
   if List.length lines < 3 then
     fail "event stream delivered only %d lines" (List.length lines);
   List.iter
     (fun line ->
       match Obs.Json.parse line with
       | Ok _ -> ()
       | Error e -> fail "event stream line is not JSON (%s): %s" e line)
     lines;
   Printf.printf "phase 1: job done, %d JSONL events streamed\n%!"
     (List.length lines));
  (* Phase 2: concurrent tenants, every job to done. *)
  let clients = 4 and per_client = 10 in
  let tenant c =
    let headers = [ ("x-client", Printf.sprintf "tenant-%d" c) ] in
    let ids =
      List.init per_client (fun i ->
          let body =
            Printf.sprintf
              {|{"problem":"tsp","cities":12,"budget":300,"seed":%d,"gfun":"Metropolis"}|}
              ((c * per_client) + i)
          in
          submit ~retry:true ~headers ~body ~port:port1 ())
    in
    List.iter (fun id -> ignore (await_result ~port:port1 id)) ids
  in
  List.iter Thread.join (List.init clients (Thread.create tenant));
  Printf.printf "phase 2: %d jobs from %d concurrent tenants all done\n%!"
    (clients * per_client) clients;
  terminate pid1;
  Printf.printf "phase 2: SIGTERM drained, exit 0\n%!";
  (* Phase 3: SIGKILL once a checkpoint exists, restart, compare. *)
  let dir2 = Filename.temp_dir "sa_labd_smoke2" "" in
  let pid2, port2 = spawn exe ~dir:dir2 in
  let id2 = submit ~port:port2 () in
  let rec wait_snapshot tries =
    if tries = 0 then fail "no cadence checkpoint ever appeared"
    else if Store.snapshots ~dir:dir2 id2 = [] then begin
      Thread.delay 0.01;
      wait_snapshot (tries - 1)
    end
  in
  wait_snapshot 2_000;
  Unix.kill pid2 Sys.sigkill;
  ignore (reap pid2);
  Printf.printf "phase 3: SIGKILL with %d snapshot(s) on disk\n%!"
    (List.length (Store.snapshots ~dir:dir2 id2));
  let pid3, port3 = spawn exe ~dir:dir2 in
  let resumed_result = await_result ~port:port3 id2 in
  if not (String.equal resumed_result reference) then
    fail "resumed report differs from the uninterrupted run:\n%s\nvs\n%s"
      resumed_result reference;
  (let _, body = get ~port:port3 "/healthz" in
   match Obs.Json.parse body with
   | Ok json -> (
       match Obs.Json.member "resumed" json with
       | Some (Obs.Json.Int n) when n >= 1 -> ()
       | _ -> fail "healthz did not count the resume: %s" body)
   | Error e -> fail "healthz: %s" e);
  terminate pid3;
  Printf.printf
    "phase 3: restart resumed job %d bit-identically; drained, exit 0\n%!" id2;
  print_endline "service-smoke: ok"
