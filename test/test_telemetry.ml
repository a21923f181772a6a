(* The telemetry layer: the HTTP request parser under torture (split
   reads, oversized heads, garbage), the live server end to end over
   real sockets (status codes, keep-alive reuse, stop during a
   scrape), shard merging, the run table, the Prometheus golden
   (exact bucket-bound strings, +Inf cumulative semantics), the
   sampling profiler's reconciliation against the metrics counters,
   and the determinism bargain: byte-identical portfolio reports with
   telemetry on or off at 1, 2, and 4 domains. *)

let case name f = Alcotest.test_case name `Quick f

(* ------------------------- request parsing ----------------------- *)

(* A read function delivering [s] in [chunk]-byte slices, so a head
   split across any number of reads must parse like one read whole. *)
let feeder ?(chunk = max_int) s =
  let pos = ref 0 in
  fun buf off len ->
    let n = min (min len chunk) (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

let head = "GET /metrics HTTP/1.1\r\nHost: localhost\r\nX-Scraper: Test\r\n\r\n"

let test_request_split_reads () =
  let whole =
    match Telemetry_http.Request.read (feeder head) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e)
  in
  Alcotest.check Alcotest.string "method" "GET" whole.Telemetry_http.Request.meth;
  Alcotest.check Alcotest.string "path" "/metrics" whole.Telemetry_http.Request.path;
  Alcotest.check Alcotest.string "version" "HTTP/1.1"
    whole.Telemetry_http.Request.version;
  Alcotest.check
    (Alcotest.option Alcotest.string)
    "case-insensitive header lookup" (Some "Test")
    (Telemetry_http.Request.header whole "x-sCrApEr");
  (* Every chunking, down to one byte per read, parses identically. *)
  List.iter
    (fun chunk ->
      match Telemetry_http.Request.read (feeder ~chunk head) with
      | Ok r ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "chunk=%d parses identically" chunk)
            true (r = whole)
      | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e))
    [ 1; 2; 3; 7; 16 ]

let test_request_bare_lf () =
  (* Bare-LF separators (curl to a unix pipe, hand-typed telnet). *)
  match
    Telemetry_http.Request.read
      (feeder "GET /runs HTTP/1.0\nConnection: Keep-Alive\n\n")
  with
  | Ok r ->
      Alcotest.check Alcotest.string "path" "/runs" r.Telemetry_http.Request.path;
      Alcotest.check Alcotest.bool "explicit keep-alive on HTTP/1.0" false
        (Telemetry_http.Request.wants_close r)
  | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e)

let test_request_wants_close () =
  let parse s =
    match Telemetry_http.Request.read (feeder s) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e)
  in
  Alcotest.check Alcotest.bool "HTTP/1.1 default keep-alive" false
    (Telemetry_http.Request.wants_close (parse "GET / HTTP/1.1\r\n\r\n"));
  Alcotest.check Alcotest.bool "HTTP/1.0 default close" true
    (Telemetry_http.Request.wants_close (parse "GET / HTTP/1.0\r\n\r\n"));
  Alcotest.check Alcotest.bool "Connection: close honoured" true
    (Telemetry_http.Request.wants_close
       (parse "GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"))

let test_request_oversized () =
  (* An endless header line must hit the size guard, not loop. *)
  let endless buf off len =
    Bytes.fill buf off len 'a';
    len
  in
  match Telemetry_http.Request.read endless with
  | Error Telemetry_http.Request.Too_large -> ()
  | Ok _ -> Alcotest.fail "unbounded head was accepted"
  | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e)

let test_request_eof_and_garbage () =
  (match Telemetry_http.Request.read (feeder "GET /metrics HT") with
  | Error Telemetry_http.Request.Eof -> ()
  | _ -> Alcotest.fail "truncated head should report Eof");
  (match Telemetry_http.Request.read (feeder "how about no\r\n\r\n") with
  | Error (Telemetry_http.Request.Bad _) -> ()
  | _ -> Alcotest.fail "garbage request line should be Bad");
  match Telemetry_http.Request.read (feeder "GET / FTP/1.1\r\n\r\n") with
  | Error (Telemetry_http.Request.Bad _) -> ()
  | _ -> Alcotest.fail "non-HTTP version should be Bad"

let test_read_from_bodies () =
  (* One source, two pipelined requests: a POST with a body, then a
     GET.  The body must arrive whole and the surplus bytes must stay
     pending for the second read. *)
  let wire =
    "POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nsuch body"
    ^ "GET /healthz HTTP/1.1\r\n\r\n"
  in
  let src = Telemetry_http.Request.Source.of_read (feeder ~chunk:5 wire) in
  (match Telemetry_http.Request.read_from src with
  | Ok (r, body) ->
      Alcotest.check Alcotest.string "first path" "/jobs"
        r.Telemetry_http.Request.path;
      Alcotest.check Alcotest.string "body delivered whole" "such body" body
  | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e));
  (match Telemetry_http.Request.read_from src with
  | Ok (r, body) ->
      Alcotest.check Alcotest.string "pipelined path" "/healthz"
        r.Telemetry_http.Request.path;
      Alcotest.check Alcotest.string "no body on the GET" "" body
  | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e));
  (* A declared body over the cap is refused before it is read. *)
  match
    Telemetry_http.Request.read_from ~max_body:4
      (Telemetry_http.Request.Source.of_read
         (feeder "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"))
  with
  | Error Telemetry_http.Request.Body_too_large -> ()
  | Ok _ -> Alcotest.fail "oversized body was accepted"
  | Error e -> Alcotest.fail (Telemetry_http.Request.error_to_string e)

(* --------------------------- live server ------------------------- *)

let with_raw ~port f =
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float sock SO_RCVTIMEO 5.;
      Unix.setsockopt_float sock SO_SNDTIMEO 5.;
      Unix.connect sock
        (ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      f sock)

let send_str sock s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write sock b off (n - off)) in
  go 0

let recv_until_close sock =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Unix.read sock chunk 0 1024 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let occurrences hay needle =
  let h = String.length hay and n = String.length needle in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr count
  done;
  !count

(* Read until [needle] shows up (for talking to a connection the
   server is keeping alive, where reading to EOF would block). *)
let recv_until sock needle =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if occurrences (Buffer.contents buf) needle = 0 then
      match Unix.read sock chunk 0 1024 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
  in
  go ();
  Buffer.contents buf

let with_server f =
  let tele = Telemetry.create ~workers:1 ~labels:[ "job-a" ] () in
  let server = Telemetry_http.start ~handler:(Telemetry.handler tele) () in
  Fun.protect
    ~finally:(fun () -> Telemetry_http.stop server)
    (fun () -> f tele (Telemetry_http.port server))

let test_server_routes () =
  with_server (fun _tele port ->
      (match Telemetry_http.get ~port "/healthz" with
      | Ok (200, "ok\n") -> ()
      | Ok (st, body) -> Alcotest.failf "/healthz: %d %S" st body
      | Error e -> Alcotest.fail e);
      (match Telemetry_http.get ~port "/runs" with
      | Ok (200, body) -> (
          match Obs.Json.parse (String.trim body) with
          | Ok json ->
              Alcotest.check Alcotest.bool "schema tag" true
                (Obs.Json.member "schema" json
                = Some (Obs.Json.String "sa-lab/telemetry/v1"))
          | Error e -> Alcotest.fail ("/runs JSON: " ^ e))
      | Ok (st, _) -> Alcotest.failf "/runs: status %d" st
      | Error e -> Alcotest.fail e);
      (match Telemetry_http.get ~port "/metrics" with
      | Ok (200, _) -> ()
      | Ok (st, _) -> Alcotest.failf "/metrics: status %d" st
      | Error e -> Alcotest.fail e);
      match Telemetry_http.get ~port "/nope" with
      | Ok (404, _) -> ()
      | Ok (st, _) -> Alcotest.failf "/nope: status %d, want 404" st
      | Error e -> Alcotest.fail e)

let test_server_rejections () =
  with_server (fun _tele port ->
      let exchange payload =
        with_raw ~port (fun sock ->
            send_str sock payload;
            recv_until_close sock)
      in
      Alcotest.check Alcotest.int "POST gets 405" 1
        (occurrences
           (exchange "POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
           "HTTP/1.1 405");
      Alcotest.check Alcotest.int "garbage gets 400" 1
        (occurrences (exchange "how about no\r\n\r\n") "HTTP/1.1 400");
      let huge =
        "GET /metrics HTTP/1.1\r\nX-Pad: " ^ String.make 9000 'a' ^ "\r\n\r\n"
      in
      Alcotest.check Alcotest.int "oversized head gets 431" 1
        (occurrences (exchange huge) "HTTP/1.1 431"))

let test_server_keep_alive_reuse () =
  with_server (fun _tele port ->
      (* One request at a time: the server reads in chunks and does not
         buffer pipelined bytes across requests, so wait for each
         response before sending the next. *)
      let raw =
        with_raw ~port (fun sock ->
            send_str sock "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
            let first = recv_until sock "ok\n" in
            send_str sock
              "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
            first ^ recv_until_close sock)
      in
      Alcotest.check Alcotest.int "two responses on one connection" 2
        (occurrences raw "HTTP/1.1 200");
      Alcotest.check Alcotest.int "both bodies arrived" 2
        (occurrences raw "ok\n"))

let test_stop_mid_scrape () =
  (* A connection parked mid-request must not wedge [stop]: the
     self-pipe wakes the blocked read and teardown completes. *)
  let tele = Telemetry.create ~workers:1 ~labels:[ "job-a" ] () in
  let server = Telemetry_http.start ~handler:(Telemetry.handler tele) () in
  let port = Telemetry_http.port server in
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect sock (ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  send_str sock "GET /metr";
  (* half a request, never finished *)
  let t0 = Obs.now () in
  Telemetry_http.stop server;
  let elapsed = Obs.now () -. t0 in
  Unix.close sock;
  Alcotest.check Alcotest.bool
    (Printf.sprintf "stop returned promptly (%.2fs)" elapsed)
    true (elapsed < 5.);
  (* Idempotent, and the port is really gone. *)
  Telemetry_http.stop server;
  match Telemetry_http.get ~timeout:1. ~port "/healthz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "server still answering after stop"

let test_head_and_allow () =
  with_server (fun _tele port ->
      (* HEAD runs the handler but ships only headers: same
         content-length as the GET, empty body. *)
      (match Telemetry_http.request ~meth:"HEAD" ~port "/healthz" with
      | Ok (200, headers, body) ->
          Alcotest.check Alcotest.string "HEAD has no body" "" body;
          Alcotest.check
            (Alcotest.option Alcotest.string)
            "content-length matches the GET body"
            (Some (string_of_int (String.length "ok\n")))
            (List.assoc_opt "content-length" headers)
      | Ok (st, _, _) -> Alcotest.failf "HEAD /healthz: status %d" st
      | Error e -> Alcotest.fail e);
      (* An unknown method answers 405 and names what is allowed. *)
      match Telemetry_http.request ~meth:"POST" ~port "/healthz" with
      | Ok (405, headers, _) ->
          Alcotest.check
            (Alcotest.option Alcotest.string)
            "Allow header" (Some "GET, HEAD")
            (List.assoc_opt "allow" headers)
      | Ok (st, _, _) -> Alcotest.failf "POST /healthz: status %d, want 405" st
      | Error e -> Alcotest.fail e)

let test_idle_timeout () =
  let tele = Telemetry.create ~workers:1 ~labels:[ "job-a" ] () in
  let server =
    Telemetry_http.start ~idle_timeout:0.2 ~handler:(Telemetry.handler tele) ()
  in
  Fun.protect
    ~finally:(fun () -> Telemetry_http.stop server)
    (fun () ->
      let port = Telemetry_http.port server in
      (* Open a connection and stall: the server must hang up on its
         own, well before the read timeout on our side. *)
      with_raw ~port (fun sock ->
          let t0 = Obs.now () in
          Alcotest.check Alcotest.string "idle connection dropped" ""
            (recv_until_close sock);
          Alcotest.check Alcotest.bool "dropped by the idle timer" true
            (Obs.now () -. t0 < 4.));
      (* The server is still alive for well-behaved clients. *)
      match Telemetry_http.get ~port "/healthz" with
      | Ok (200, _) -> ()
      | Ok (st, _) -> Alcotest.failf "post-timeout /healthz: status %d" st
      | Error e -> Alcotest.fail e)

let test_routed_server_and_chunked_client () =
  (* start_routed hands the handler the full request; the response
     here echoes method/path/body back through a chunked stream, so
     this also proves the client's dechunking. *)
  let server =
    Telemetry_http.start_routed
      ~handler:(fun req ~body ->
          match req.Telemetry_http.Request.meth with
          | "POST" ->
              Telemetry_http.stream 200 (fun write ->
                  write (req.Telemetry_http.Request.path ^ "\n");
                  write body)
          | "GET" -> Telemetry_http.respond 200 "plain\n"
          | _ -> Telemetry_http.respond 405 "no")
      ()
  in
  Fun.protect
    ~finally:(fun () -> Telemetry_http.stop server)
    (fun () ->
      let port = Telemetry_http.port server in
      (match
         Telemetry_http.request ~meth:"POST" ~port ~body:"the payload" "/echo"
       with
      | Ok (200, headers, body) ->
          Alcotest.check Alcotest.string "chunked body reassembled"
            "/echo\nthe payload" body;
          Alcotest.check
            (Alcotest.option Alcotest.string)
            "chunked transfer encoding" (Some "chunked")
            (List.assoc_opt "transfer-encoding" headers)
      | Ok (st, _, _) -> Alcotest.failf "POST /echo: status %d" st
      | Error e -> Alcotest.fail e);
      match Telemetry_http.get ~port "/fixed" with
      | Ok (200, "plain\n") -> ()
      | Ok (st, body) -> Alcotest.failf "GET /fixed: %d %S" st body
      | Error e -> Alcotest.fail e)

let test_peer_disconnect_mid_stream () =
  (* An event-stream client that vanishes mid-response is routine.
     With SIGPIPE ignored by the server, the dead socket surfaces as
     EPIPE on that one connection; the process and the listener must
     both survive it. *)
  let server =
    Telemetry_http.start_routed
      ~handler:(fun _req ~body:_ ->
        Telemetry_http.stream 200 (fun write ->
            for _ = 1 to 500 do
              write (String.make 1024 'x');
              Thread.delay 0.001
            done))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Telemetry_http.stop server)
    (fun () ->
      let port = Telemetry_http.port server in
      with_raw ~port (fun sock ->
          send_str sock "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n";
          (* Make sure the stream is really flowing, then vanish. *)
          let chunk = Bytes.create 1024 in
          ignore (Unix.read sock chunk 0 1024));
      (* Let the server run into the closed peer, then prove it still
         answers. *)
      Thread.delay 0.2;
      match Telemetry_http.get ~port "/after" with
      | Ok (200, _) -> ()
      | Ok (st, _) -> Alcotest.failf "post-disconnect status %d" st
      | Error e -> Alcotest.fail e)

(* ------------------------- shards and runs ----------------------- *)

let test_shards_merge () =
  let sh = Telemetry.Shards.create ~workers:2 in
  let emit w evs =
    let o = Telemetry.Shards.observer sh ~worker:w in
    List.iter (Obs.Observer.emit o) evs
  in
  emit 0
    [
      Obs.Event.Run_start { cost = 10. };
      Obs.Event.Proposed { evaluation = 1; cost = 9. };
      Obs.Event.Proposed { evaluation = 2; cost = 11. };
    ];
  emit 1
    [
      Obs.Event.Run_start { cost = 20. };
      Obs.Event.Proposed { evaluation = 1; cost = 19. };
    ];
  let m = Telemetry.Shards.merged sh in
  Alcotest.check Alcotest.int "proposed sums across shards" 3
    (Obs.Metrics.counter m "proposed")

let member name json =
  match Obs.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "missing member %S" name

let test_runs_slots () =
  let t = Telemetry.Runs.create [ "a"; "b" ] in
  let o = Telemetry.Runs.observer t ~job:0 in
  List.iter (Obs.Observer.emit o)
    [
      Obs.Event.Run_start { cost = 10. };
      Obs.Event.Proposed { evaluation = 1; cost = 9. };
      Obs.Event.New_best { evaluation = 1; cost = 9. };
      Obs.Event.Temp_advance { temp = 2; y = 0.5 };
      Obs.Event.Run_end
        { evaluations = 100; final_cost = 8.; best_cost = 7.5; seconds = 0.01 };
    ];
  Obs.Observer.emit
    (Telemetry.standings_observer
       (Telemetry.create ~workers:1 ~labels:[ "x" ] ()))
    (Obs.Event.Run_start { cost = 0. });
  (* ^ unrelated bundle: standings observers ignore non-standing events *)
  Obs.Observer.emit
    (Telemetry.Runs.standings_observer t)
    (Obs.Event.Rung_standing
       { rung = 3; label = "b"; best_cost = 42.; evaluations = 7; culled = true });
  match Telemetry.Runs.to_json t with
  | Obs.Json.List [ a; b ] ->
      Alcotest.check Alcotest.bool "slot a done" true
        (member "status" a = Obs.Json.String "done");
      Alcotest.check Alcotest.bool "slot a best from Run_end" true
        (member "best_cost" a = Obs.Json.Float 7.5);
      Alcotest.check Alcotest.bool "slot a evals from Run_end" true
        (member "evaluations" a = Obs.Json.Int 100);
      Alcotest.check Alcotest.bool "slot a temp advanced" true
        (member "temp" a = Obs.Json.Int 2);
      Alcotest.check Alcotest.bool "slot b culled by standings" true
        (member "status" b = Obs.Json.String "culled");
      Alcotest.check Alcotest.bool "slot b rung pinned" true
        (member "rung" b = Obs.Json.Int 3);
      Alcotest.check Alcotest.bool "slot b best pinned" true
        (member "best_cost" b = Obs.Json.Float 42.)
  | _ -> Alcotest.fail "runs json is not a two-slot list"

(* ------------------------- prometheus golden --------------------- *)

let test_prometheus_golden () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:41 m "proposed";
  Obs.Metrics.set_gauge m "best_cost" 12.5;
  (* Histogram (base 2): 1e-6 lands in bucket [2^-20, 2^-19) — a
     bound %g would round to 9.53674e-07/1.90735e-06; the exposition
     must print every round-trip digit.  0.0 is an underflow sample:
     absent from every finite bucket, counted by +Inf. *)
  List.iter
    (Obs.Metrics.observe m "span.run")
    [ 1e-6; 0.75; 1.5; 0.0 ];
  let stats = Pool.Stats.create ~clock:(fun () -> 0.) ~workers:1 () in
  let expected =
    String.concat ""
      [
        "# TYPE sa_lab_best_cost gauge\n";
        "sa_lab_best_cost 12.5\n";
        "# TYPE sa_lab_proposed_total counter\n";
        "sa_lab_proposed_total 41\n";
        "# TYPE sa_lab_span_run histogram\n";
        "sa_lab_span_run_bucket{le=\"1.9073486328125e-06\"} 1\n";
        "sa_lab_span_run_bucket{le=\"1.0\"} 2\n";
        "sa_lab_span_run_bucket{le=\"2.0\"} 3\n";
        "sa_lab_span_run_bucket{le=\"+Inf\"} 4\n";
        (* The sum is mean*count where the mean came through the Welford
           merge, so the last ulp differs from the naive 2.250001 and
           only the 17-digit round-trip rendering reproduces it. *)
        "sa_lab_span_run_sum 2.2500009999999997\n";
        "sa_lab_span_run_count 4\n";
        "# HELP sa_lab_pool_tasks_run Tasks completed by this worker\n";
        "# TYPE sa_lab_pool_tasks_run gauge\n";
        "sa_lab_pool_tasks_run{worker=\"0\"} 0\n";
        "# HELP sa_lab_pool_steals Tasks this worker stole from another deque\n";
        "# TYPE sa_lab_pool_steals gauge\n";
        "sa_lab_pool_steals{worker=\"0\"} 0\n";
        "# HELP sa_lab_pool_queue_depth Tasks waiting in this worker's deque\n";
        "# TYPE sa_lab_pool_queue_depth gauge\n";
        "sa_lab_pool_queue_depth{worker=\"0\"} 0\n";
        "# HELP sa_lab_pool_busy_seconds Time this worker spent inside tasks\n";
        "# TYPE sa_lab_pool_busy_seconds gauge\n";
        "sa_lab_pool_busy_seconds{worker=\"0\"} 0.0\n";
        "# HELP sa_lab_pool_idle_seconds Time this worker spent waiting for work\n";
        "# TYPE sa_lab_pool_idle_seconds gauge\n";
        "sa_lab_pool_idle_seconds{worker=\"0\"} 0.0\n";
      ]
  in
  Alcotest.check Alcotest.string "prometheus text golden" expected
    (Telemetry.Prometheus.render ~pool_stats:stats m)

let test_prometheus_sanitize () =
  Alcotest.check Alcotest.string "dots and dashes become underscores"
    "sa_lab_span_rung_2" (Telemetry.Prometheus.sanitize "sa_lab_span.rung-2")

(* ---------------------------- profiler --------------------------- *)

module TspF1 = Figure1.Make (Tsp_problem)

let profiled_run () =
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:70) ~n:40 in
  let p = Telemetry_profile.create () in
  let m = Obs.Metrics.create () in
  let params =
    TspF1.params ~gfun:Gfun.metropolis
      ~schedule:(Schedule.of_array [| 0.5 |])
      ~budget:(Budget.Evaluations 2000) ()
  in
  let state = Tour.random (Rng.create ~seed:71) inst in
  ignore
    (TspF1.run
       ~observer:
         (Obs.Observer.tee [ Obs.Metrics.observer m; Telemetry_profile.observer p ])
       (Rng.create ~seed:72) params state);
  (p, m)

let test_profiler_reconciles () =
  let p, m = profiled_run () in
  let proposed = Obs.Metrics.counter m "proposed" in
  Alcotest.check Alcotest.int "one sample per cadence proposals"
    (proposed / Telemetry_profile.cadence)
    (Telemetry_profile.samples p);
  Alcotest.check Alcotest.int "stack counts sum to samples"
    (Telemetry_profile.samples p)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Telemetry_profile.stacks p));
  (* Every sample landed inside the run span. *)
  List.iter
    (fun (stack, _) ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "stack %S rooted at run" stack)
        true
        (String.length stack >= 3 && String.sub stack 0 3 = "run"))
    (Telemetry_profile.stacks p)

let test_profiler_deterministic () =
  let p1, _ = profiled_run () in
  let p2, _ = profiled_run () in
  Alcotest.check Alcotest.string "identical folded profile, fixed seed"
    (Telemetry_profile.folded p1) (Telemetry_profile.folded p2)

(* ------------------------ determinism bargain -------------------- *)

let race_report ~domains ~telemetry () =
  let inst = Tsp_instance.random_uniform (Rng.create ~seed:80) ~n:30 in
  let job label y =
    Portfolio.Job.figure1
      (module Tsp_problem)
      ~delta_ops:Tsp_problem.delta_ops ~label ~gfun:Gfun.metropolis
      ~schedule:(Schedule.of_array [| y |])
      ~make_state:(fun rng -> Tour.random rng inst)
      ()
  in
  let jobs = [ job "a" 0.1; job "b" 0.3; job "c" 1.0 ] in
  let report =
    if not telemetry then
      Portfolio.race ~domains (Rng.create ~seed:81)
        ~initial_budget:(Budget.Evaluations 200) jobs
    else begin
      let workers = max 1 (min domains (List.length jobs)) in
      let pool_stats = Pool.Stats.create ~clock:Obs.now ~workers () in
      let tele =
        Telemetry.create ~pool_stats ~workers
          ~labels:(List.map Portfolio.Job.label jobs)
          ()
      in
      let server = Telemetry_http.start ~handler:(Telemetry.handler tele) () in
      Fun.protect
        ~finally:(fun () -> Telemetry_http.stop server)
        (fun () ->
          Portfolio.race ~domains
            ~observer:(Telemetry.standings_observer tele)
            ~job_observer:(Telemetry.job_observer tele)
            ~pool_stats (Rng.create ~seed:81)
            ~initial_budget:(Budget.Evaluations 200) jobs)
    end
  in
  Obs.Json.to_string (Portfolio.report_to_json report)

let test_reports_byte_identical () =
  let baseline = race_report ~domains:1 ~telemetry:false () in
  List.iter
    (fun domains ->
      Alcotest.check Alcotest.string
        (Printf.sprintf "telemetry on, %d domains" domains)
        baseline
        (race_report ~domains ~telemetry:true ()))
    [ 1; 2; 4 ];
  Alcotest.check Alcotest.string "telemetry off, 2 domains" baseline
    (race_report ~domains:2 ~telemetry:false ())

let suite =
  [
    case "request head parses under split reads" test_request_split_reads;
    case "request accepts bare-LF separators" test_request_bare_lf;
    case "wants_close follows HTTP/1.x defaults" test_request_wants_close;
    case "oversized head is bounded" test_request_oversized;
    case "truncation and garbage are typed errors" test_request_eof_and_garbage;
    case "read_from delivers bodies and keeps pipelined bytes"
      test_read_from_bodies;
    case "server routes the three endpoints" test_server_routes;
    case "HEAD ships headers only; 405 names Allow" test_head_and_allow;
    case "idle connections are dropped, server survives" test_idle_timeout;
    case "routed server streams; client dechunks" test_routed_server_and_chunked_client;
    case "peer disconnect mid-stream is EPIPE, not process death"
      test_peer_disconnect_mid_stream;
    case "server rejects bad method/garbage/oversize" test_server_rejections;
    case "keep-alive serves several requests per connection"
      test_server_keep_alive_reuse;
    case "stop interrupts a connection mid-request" test_stop_mid_scrape;
    case "shards merge across workers" test_shards_merge;
    case "run slots track events and standings" test_runs_slots;
    case "prometheus text matches the golden" test_prometheus_golden;
    case "prometheus name sanitization" test_prometheus_sanitize;
    case "profiler reconciles with metrics counters" test_profiler_reconciles;
    case "profiler is deterministic under a fixed seed"
      test_profiler_deterministic;
    case "reports byte-identical with telemetry at 1/2/4 domains"
      test_reports_byte_identical;
  ]
