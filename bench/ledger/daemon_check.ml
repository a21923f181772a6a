(* The sa_labd output check run by the smoke.  The real daemon binary,
   with default flags on a fresh state directory, serves a few jobs on
   data/gola15.net from two tenants: anneal jobs on the delta path
   (checkpointed every 1000 ticks) and races of the 21-class catalog.
   Every finished job's output is checked; the first job of each kind
   must equal the same spec run in process through [Runner.run], byte
   for byte; and the daemon must drain and exit 0 on SIGTERM.

   The daemon is not a timed workload: its submit-to-finish times are
   wall times of another process, which the canary cannot follow, and
   over ten seeds they did not repeat within the largest bound a
   contract metric may have (README.md). *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let children = ref []

(* A check that dies early must not leave a daemon behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let deadline seconds = Probe.now_ns () + int_of_float (seconds *. 1e9)

(* Spawn with default flags on a fresh state directory; ready when
   /healthz answers. *)
let start ~exe ~dir =
  rm_rf dir;
  let pid =
    Unix.create_process exe
      [| exe; "--state-dir"; dir; "--port"; "0" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  let until = deadline 30. in
  let rec wait () =
    if Probe.now_ns () > until then failwith "sa_labd never answered /healthz";
    let port =
      match In_channel.with_open_bin (Store.port_path ~dir) In_channel.input_all with
      | s -> int_of_string_opt (String.trim s)
      | exception Sys_error _ -> None
    in
    match Option.map (fun port -> (port, Telemetry_http.get ~port "/healthz")) port with
    | Some (port, Ok (200, _)) -> (pid, port)
    | _ ->
        Unix.sleepf 0.002;
        wait ()
  in
  wait ()

let job_body ~netlist ~budget ~race ~seed =
  Obs.Json.to_string
    (Obs.Json.Obj
       ([
          ("problem", Obs.Json.String "netlist");
          ("netlist", Obs.Json.String netlist);
          ("budget", Obs.Json.Int budget);
          ("seed", Obs.Json.Int seed);
        ]
       @ if race then [ ("mode", Obs.Json.String "race") ] else []))

let submit ~port ~tenant body =
  match
    Telemetry_http.request ~meth:"POST" ~port ~headers:[ ("x-client", tenant) ] ~body "/jobs"
  with
  | Ok (202, _, reply) -> (
      match Result.map (Obs.Json.member "id") (Obs.Json.parse reply) with
      | Ok (Some (Obs.Json.Int id)) -> Ok id
      | Ok _ | Error _ -> Error reply)
  | Ok (status, _, reply) -> Error (Printf.sprintf "%d %s" status reply)
  | Error e -> Error e

(* Polls one job until it is terminal: its status and result. *)
let await ~port id =
  let until = deadline 60. in
  let rec poll () =
    let json =
      match Telemetry_http.get ~port (Printf.sprintf "/jobs/%d" id) with
      | Ok (200, body) -> Result.to_option (Obs.Json.parse body)
      | Ok _ | Error _ -> None
    in
    match Option.bind json (Obs.Json.member "status") with
    | Some (Obs.Json.String (("done" | "failed" | "cancelled" | "interrupted") as st)) ->
        (st, Option.bind json (Obs.Json.member "result"))
    | _ when Probe.now_ns () > until -> ("timed out", None)
    | _ ->
        Unix.sleepf 0.005;
        poll ()
  in
  poll ()

let int_member name json = Option.bind (Obs.Json.member name json) Obs.Json.to_int

let list_member name json =
  match Obs.Json.member name json with Some (Obs.Json.List xs) -> xs | _ -> []

(* Anneal jobs re-price their best order from scratch; race reports
   must add up over their rungs. *)
let check_result nl ~race result =
  if race then begin
    let rungs =
      List.concat_map
        (fun r -> List.filter_map (int_member "evaluations") (list_member "results" r))
        (list_member "rounds" result)
    in
    Measure.expect "race report adds up"
      (rungs <> [] && int_member "total_evaluations" result = Some (List.fold_left ( + ) 0 rungs))
      (Obs.Json.to_string result)
  end
  else
    let order = Array.of_list (List.filter_map Obs.Json.to_int (list_member "best" result)) in
    let reported = Option.bind (Obs.Json.member "best_cost_value" result) Obs.Json.to_float in
    Measure.expect "job best density re-priced"
      (Array.length order = Netlist.n_elements nl
      && Option.equal Float.equal reported
           (Some (float_of_int (Arrangement.density_of_order nl order))))
      (Obs.Json.to_string result)

(* The same spec run in process through [Runner.run], the daemon's own
   execution path minus HTTP and queueing. *)
let replica ~dir ~id body =
  match Job_spec.parse ~max_budget:max_int body with
  | Error e -> Error e
  | Ok spec -> (
      Store.mkdir_p dir;
      let r =
        Runner.run ~dir ~id ~checkpoint_every:1000 ~max_attempts:3 ~base_delay:0.05
          ~stop:(fun () -> false)
          spec
      in
      rm_rf dir;
      match r.Runner.status with
      | Runner.Done json -> Ok (Obs.Json.to_string json)
      | Runner.Halted -> Error "halted"
      | Runner.Failed e -> Error e)

(* [jobs] jobs, every fifth a race; returns how many were submitted and
   how many finished with a correct output. *)
let run ~exe ~data ~run_dir ~seed ~scale ~jobs =
  let netlist = In_channel.with_open_bin (Filename.concat data "gola15.net") In_channel.input_all in
  let nl = match Netlist.of_string netlist with Ok nl -> nl | Error e -> failwith e in
  let dir name = Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  let pid, port = start ~exe ~dir:(dir "daemon") in
  let specs =
    List.init jobs (fun i ->
        let race = i mod 5 = 4 in
        let budget = Workloads.scaled scale (if race then 1_600 else 20_000) in
        (race, Printf.sprintf "tenant-%d" (i mod 2), job_body ~netlist ~budget ~race ~seed:(seed + i)))
  in
  let submitted =
    List.map (fun (race, tenant, body) -> (race, body, submit ~port ~tenant body)) specs
  in
  let finished =
    List.filter_map
      (fun (race, body, id) ->
        match id with
        | Error e ->
            Measure.expect "job admitted" false e;
            None
        | Ok id -> (
            match await ~port id with
            | "done", Some result ->
                check_result nl ~race result;
                Some (race, body, id, result)
            | st, _ ->
                Measure.expect "job finished" false (Printf.sprintf "job %d: %s" id st);
                None))
      submitted
  in
  List.iter
    (fun kind ->
      match List.find_opt (fun (race, _, _, _) -> race = kind) finished with
      | None -> Measure.expect "a job of each kind finished" false (if kind then "race" else "anneal")
      | Some (_, body, id, result) ->
          Measure.expect "daemon result = in-process Runner.run, byte for byte"
            (replica ~dir:(dir "replica") ~id body = Ok (Obs.Json.to_string result))
            (Printf.sprintf "job %d" id))
    [ false; true ];
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  children := [];
  rm_rf (dir "daemon");
  Measure.expect "sa_labd drains and exits 0 on SIGTERM" (status = Unix.WEXITED 0) "";
  (List.length specs, List.length finished)
