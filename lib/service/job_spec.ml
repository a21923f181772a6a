(* Job specifications: what a tenant POSTs to /jobs.

   A spec is everything needed to reproduce a run exactly — problem
   payload, g-class, base temperature, budget, seed, mode — which is
   why its canonical JSON (with the netlist collapsed to a digest)
   doubles as the checkpoint fingerprint: a snapshot resumes only
   under the spec that wrote it.

   Parsing is strict and bounded: unknown problem kinds, missing
   fields, out-of-range sizes, and budgets above the server's cap are
   admission-time 400s, never daemon-side surprises. *)

type problem =
  | Netlist of string  (* textual netlist (see Netlist.of_string) *)
  | Tsp of { cities : int }
  | Qap of { n : int; max_entry : int }

type mode = Anneal | Race

type chaos = { fault : Mc_problem.fault; attempts : int }

type t = {
  problem : problem;
  gfun : string;
  y : float;
  budget : int;
  seed : int;
  mode : mode;
  deadline : float option;  (* anneal: per-attempt wall seconds; race: CPU seconds *)
  chaos : chaos option;
}

let ( let* ) = Result.bind

let field json name = Obs.Json.member name json

let int_field ?default json name =
  match field json name with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))
  | Some v -> (
      match Obs.Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S is not an integer" name))

(* Accepts a JSON number or the canonical ["%h"] hex-float string the
   daemon itself writes, so manifests round-trip exactly. *)
let float_field ~default json name =
  match field json name with
  | None -> Ok default
  | Some (Obs.Json.String s) -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error (Printf.sprintf "field %S is not a finite number" name))
  | Some v -> (
      match Obs.Json.to_float v with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error (Printf.sprintf "field %S is not a finite number" name))

let string_field ?default json name =
  match field json name with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing field %S" name))
  | Some (Obs.Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S is not a string" name)

let bounded name lo hi v =
  if v < lo || v > hi then
    Error (Printf.sprintf "field %S must be in [%d, %d] (got %d)" name lo hi v)
  else Ok v

let of_json ~max_budget json =
  let* kind = string_field json "problem" in
  let* problem =
    match kind with
    | "netlist" ->
        let* text = string_field json "netlist" in
        (* Parse now: a malformed payload is the client's 400, not a
           failed job later. *)
        let* _nl =
          Result.map_error (fun e -> "netlist: " ^ e) (Netlist.of_string text)
        in
        Ok (Netlist text)
    | "tsp" ->
        let* cities = int_field json "cities" in
        let* cities = bounded "cities" 3 20_000 cities in
        Ok (Tsp { cities })
    | "qap" ->
        let* n = int_field json "n" in
        let* n = bounded "n" 2 512 n in
        let* max_entry = int_field ~default:10 json "max_entry" in
        let* max_entry = bounded "max_entry" 1 1_000 max_entry in
        Ok (Qap { n; max_entry })
    | other -> Error (Printf.sprintf "unknown problem kind %S" other)
  in
  let* gfun = string_field ~default:"Six Temperature Annealing" json "gfun" in
  (* Names are [m]-independent, so probing the catalog at any net
     count validates the class at admission time. *)
  let* () =
    match Gfun.find_by_name ~m:1 gfun with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "unknown gfun %S" gfun)
  in
  let* y = float_field ~default:1.0 json "y" in
  let* () = if y > 0. then Ok () else Error "field \"y\" must be positive" in
  let* budget = int_field json "budget" in
  let* () =
    if budget < 1 then Error "field \"budget\" must be positive"
    else if budget > max_budget then
      Error
        (Printf.sprintf "field \"budget\" exceeds this server's cap of %d"
           max_budget)
    else Ok ()
  in
  let* seed = int_field ~default:0 json "seed" in
  let* mode =
    let* m = string_field ~default:"anneal" json "mode" in
    match m with
    | "anneal" -> Ok Anneal
    | "race" -> Ok Race
    | other -> Error (Printf.sprintf "unknown mode %S" other)
  in
  (* [null] means absent — the canonical rendering writes explicit
     nulls so its round-trip lands here. *)
  let* deadline =
    match field json "deadline" with
    | None | Some Obs.Json.Null -> Ok None
    | Some v -> (
        let parsed =
          match v with
          | Obs.Json.String s -> float_of_string_opt s
          | _ -> Obs.Json.to_float v
        in
        match parsed with
        | Some f when Float.is_finite f && f > 0. -> Ok (Some f)
        | _ -> Error "field \"deadline\" is not a positive number")
  in
  let* chaos =
    match field json "chaos" with
    | None | Some Obs.Json.Null -> Ok None
    | Some c ->
        let* name = string_field c "fault" in
        (* A stalling move would only burn a worker; the daemon takes
           the faults that abort a walk. *)
        let* fault =
          match List.assoc_opt name Mc_problem.fault_names with
          | Some (Mc_problem.Slow_move _) | None ->
              Error (Printf.sprintf "unknown chaos fault %S" name)
          | Some fault -> Ok fault
        in
        let* attempts = int_field ~default:1 c "attempts" in
        let* attempts = bounded "chaos.attempts" 1 100 attempts in
        Ok (Some { fault; attempts })
  in
  let* () =
    match (chaos, mode) with
    | Some _, Race -> Error "chaos applies to \"anneal\" jobs only"
    | _ -> Ok ()
  in
  Ok { problem; gfun; y; budget; seed; mode; deadline; chaos }

let parse ~max_budget text =
  match Obs.Json.parse text with
  | Error e -> Error ("job spec is not valid JSON: " ^ e)
  | Ok json -> of_json ~max_budget json

let mode_name = function Anneal -> "anneal" | Race -> "race"

let problem_to_json = function
  | Netlist text ->
      Obs.Json.Obj
        [
          ("problem", Obs.Json.String "netlist");
          ("netlist", Obs.Json.String text);
        ]
  | Tsp { cities } ->
      Obs.Json.Obj
        [ ("problem", Obs.Json.String "tsp"); ("cities", Obs.Json.Int cities) ]
  | Qap { n; max_entry } ->
      Obs.Json.Obj
        [
          ("problem", Obs.Json.String "qap");
          ("n", Obs.Json.Int n);
          ("max_entry", Obs.Json.Int max_entry);
        ]

let to_json t =
  let base =
    match problem_to_json t.problem with
    | Obs.Json.Obj fields -> fields
    | _ -> assert false
  in
  Obs.Json.Obj
    (base
    @ [
        ("gfun", Obs.Json.String t.gfun);
        ("y", Obs.Json.String (Printf.sprintf "%h" t.y));
        ("budget", Obs.Json.Int t.budget);
        ("seed", Obs.Json.Int t.seed);
        ("mode", Obs.Json.String (mode_name t.mode));
        ( "deadline",
          match t.deadline with
          | None -> Obs.Json.Null
          | Some d -> Obs.Json.String (Printf.sprintf "%h" d) );
        ( "chaos",
          match t.chaos with
          | None -> Obs.Json.Null
          | Some { fault; attempts } ->
              Obs.Json.Obj
                [
                  ("fault", Obs.Json.String (Mc_problem.fault_name fault));
                  ("attempts", Obs.Json.Int attempts);
                ] );
      ])

let of_json_stored json =
  (* Re-parse a spec we wrote ourselves (manifest round-trip); the
     canonical form always carries every field, so a large cap is
     fine — the original budget was validated at admission. *)
  of_json ~max_budget:max_int json

(* The fingerprint pins a snapshot to one run configuration.  The
   netlist text is collapsed to a digest (snapshots should not carry
   the instance twice); everything else that shapes the trajectory is
   included verbatim. *)
let fingerprint t =
  let problem =
    match t.problem with
    | Netlist text ->
        Obs.Json.Obj
          [
            ("problem", Obs.Json.String "netlist");
            ( "netlist_md5",
              Obs.Json.String (Digest.to_hex (Digest.string text)) );
          ]
    | Tsp _ | Qap _ -> problem_to_json t.problem
  in
  Obs.Json.Obj
    [
      ("engine", Obs.Json.String "figure1");
      ("problem", problem);
      ("gfun", Obs.Json.String t.gfun);
      ("y", Obs.Json.String (Printf.sprintf "%h" t.y));
      ("budget", Obs.Json.Int t.budget);
      ("seed", Obs.Json.Int t.seed);
      ("mode", Obs.Json.String (mode_name t.mode));
    ]
