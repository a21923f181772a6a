(* Schema validator for the repo's machine-readable JSON documents.
   `check_json FILE.json` exits 0 when the document is valid, 1 with a
   message naming the offending value by its dotted path (for example
   rounds[2].culled[0]) when it is missing, malformed or wrong, and 2 on
   bad usage.  The document's "schema" member picks a row of [schemas]
   at the bottom: a declarative shape, plus named cross-field invariants
   written as plain code and run once the shape holds.  To add a
   schema, declare both and add a row.  The documents come from the
   bench-smoke, @lint, resilience-smoke, portfolio-smoke and
   telemetry-smoke aliases; check-json-mutants pins what is accepted. *)

type shape =
  | Any
  | Int of string * (int -> bool)  (** description, predicate *)
  | Number of string * (float -> bool)  (** an Int or a Float *)
  | Str of { non_empty : bool }
  | Bool
  | Enum of string list
  | Nullable of shape
  | List of { non_empty : bool; item : shape }
  | Obj of (string * [ `Required | `Optional ] * shape) list
  | Tagged of string * (string * shape) list
      (** an object whose tag member selects the shape of the whole object *)

let req name shape = (name, `Required, shape)
let opt name shape = (name, `Optional, shape)
let reqs shape names = List.map (fun name -> req name shape) names
let int = Int ("an integer", Fun.const true)
let positive_int = Int ("a positive integer", fun n -> n > 0)
let non_negative_int = Int ("a non-negative integer", fun n -> n >= 0)
let number = Number ("a number", Fun.const true)
let non_negative = Number ("a non-negative finite number", fun v -> v >= 0. && Float.is_finite v)
let string = Str { non_empty = false }
let non_empty_string = Str { non_empty = true }
let list item = List { non_empty = false; item }
let non_empty_list item = List { non_empty = true; item }

let rec describe = function
  | Any -> "anything"
  | Int (what, _) | Number (what, _) -> what
  | Str { non_empty } -> if non_empty then "a non-empty string" else "a string"
  | Bool -> "a boolean"
  | Enum names -> "one of " ^ String.concat ", " (List.map (Printf.sprintf "%S") names)
  | Nullable s -> describe s ^ " or null"
  | List { non_empty; _ } -> if non_empty then "a non-empty list" else "a list"
  | Obj _ | Tagged _ -> "an object"

(* A rejection: the dotted path of the offending value, and what is
   wrong with it. *)
exception Invalid of string * string

(* [ensure ok path fmt ...] rejects the value at [path] unless [ok]. *)
let ensure ok path fmt = Printf.ksprintf (fun msg -> if not ok then raise (Invalid (path, msg))) fmt
let member_path path name = if path = "" then name else path ^ "." ^ name
let index_path path i = Printf.sprintf "%s[%d]" path i

let rec check path shape v =
  let bad () =
    let text = Obs.Json.to_string v in
    let text = if String.length text > 40 then String.sub text 0 37 ^ "..." else text in
    raise (Invalid (path, Printf.sprintf "expected %s, got %s" (describe shape) text))
  in
  match (shape, v) with
  | Any, _ | Bool, Obs.Json.Bool _ | Nullable _, Obs.Json.Null -> ()
  | Int (_, ok), Obs.Json.Int n when ok n -> ()
  | Number (_, ok), _ when Option.fold ~none:false ~some:ok (Obs.Json.to_float v) -> ()
  | Str { non_empty }, Obs.Json.String s when s <> "" || not non_empty -> ()
  | Enum names, Obs.Json.String s when List.mem s names -> ()
  | Nullable s, _ -> ( try check path s v with Invalid _ -> bad ())
  | List { non_empty; item }, Obs.Json.List l when l <> [] || not non_empty ->
      List.iteri (fun i x -> check (index_path path i) item x) l
  | Obj fields, Obs.Json.Obj _ ->
      List.iter
        (fun (name, presence, s) ->
          match Obs.Json.member name v with
          | Some x -> check (member_path path name) s x
          | None -> ensure (presence = `Optional) (member_path path name) "missing")
        fields
  | Tagged (tag, cases), Obs.Json.Obj _ -> (
      check path (Obj [ req tag (Enum (List.map fst cases)) ]) v;
      match Obs.Json.member tag v with
      | Some (Obs.Json.String t) -> check path (List.assoc t cases) v
      | _ -> ())
  | _ -> bad ()

(* Invariants run only once the document matches its shape, so these
   accessors always find a present, well-typed member. *)
let field name j = Option.get (Obs.Json.member name j)
let int_of name j = Option.get (Obs.Json.to_int (field name j))
let items name j = match field name j with Obs.Json.List l -> l | _ -> []
let string_of name j = match field name j with Obs.Json.String s -> s | _ -> ""
let is_true name j = Obs.Json.member name j = Some (Obs.Json.Bool true)
let count p l = List.length (List.filter p l)

(* [within name f] runs [f path value] on a member when present,
   [each name f] on every element of a member list. *)
let within name f j = Option.iter (f name) (Obs.Json.member name j)

let each ?(at = "") name f j =
  List.iteri (fun i x -> f (index_path (member_path at name) i) x) (items name j)

(* Member [small] of the object at [path] is at most member [large]. *)
let no_more small large path j =
  let get name = Option.get (Obs.Json.to_float (field name j)) in
  ensure (get small <= get large) (member_path path small) "is %g, more than %s = %g" (get small)
    large (get large)

(* The count at [path] is the one [what] implies. *)
let agree path actual what expected =
  ensure (actual = expected) path "counts %d, but %s = %d" actual what expected

(* ---- sa-lab/bench-results/v2 ---- *)

let table_row = Obj [ req "name" string; req "rows" positive_int; req "wall_seconds" non_negative ]

(* The reproduction harness's summary: one roll-up per table. *)
let bench_results =
  Obj [ req "scale" number; req "seed" int; req "tables" (non_empty_list table_row) ]

(* ---- sa-lab/lint-report/v2 ---- *)

let severity = Enum [ "error"; "warning" ]
let position = [ req "line" positive_int; req "col" non_negative_int ]

(* Typed rules attach their witness as a call-path trace; syntactic
   rules attach []. *)
let diagnostic =
  let frame = Obj (req "symbol" non_empty_string :: req "file" string :: position) in
  Obj
    (reqs string [ "rule"; "file"; "message" ]
    @ position
    @ [ req "trace" (list frame); opt "baselined" Bool; req "severity" severity ])

let lint_report =
  let counters = [ "files_scanned"; "files_reanalyzed"; "typed_modules"; "suppressions" ] in
  let rule = Obj (req "severity" severity :: reqs non_empty_string [ "name"; "doc" ]) in
  Obj
    (reqs non_negative_int (counters @ [ "error_count"; "warning_count" ])
    @ [
        req "rules" (non_empty_list rule);
        req "diagnostics" (list diagnostic);
        opt "baseline" (Obj (reqs non_negative_int [ "matched"; "fresh"; "stale" ]));
      ])

let lint_invariants =
  let listed doc = List.length (items "diagnostics" doc) in
  [
    ("files_reanalyzed <= files_scanned", no_more "files_reanalyzed" "files_scanned" "");
    ( "error_count + warning_count = the diagnostics listed",
      fun doc ->
        agree "diagnostics" (listed doc) "error_count + warning_count"
          (int_of "error_count" doc + int_of "warning_count" doc) );
    ( "the baseline accounts for every diagnostic listed",
      fun doc ->
        let marked = count (is_true "baselined") (items "diagnostics" doc) in
        within "baseline"
          (fun at b ->
            let matched = int_of "matched" b in
            agree (at ^ ".matched + fresh") (matched + int_of "fresh" b) "diagnostics" (listed doc);
            agree (at ^ ".matched") matched "the diagnostics marked baselined" marked)
          doc );
  ]

(* ---- sa-lab/checkpoint/v1 ---- *)

(* The rules re-run the decoders a resume would use: "check_json ok"
   means "a resume would accept this file". *)
let checkpoint =
  Obj (req "engine" non_empty_string :: reqs Any [ "fingerprint"; "current"; "best"; "snapshot" ])

let checkpoint_invariants =
  [
    ( "the snapshot decodes to a state a resume accepts",
      fun doc ->
        let at = "payload.snapshot" in
        match Checkpoint.snapshot_of_json (field "snapshot" doc) with
        | Error msg -> raise (Invalid (at, msg))
        | Ok s ->
            ensure (s.Figure1.ticks >= 0) (at ^ ".ticks") "is %d, negative" s.ticks;
            ensure (Float.is_finite s.current_cost) (at ^ ".current_cost") "is not finite";
            ensure (Float.is_finite s.best_cost) (at ^ ".best_cost") "is not finite";
            ensure (s.best_cost <= s.current_cost) (at ^ ".best_cost") "%g exceeds current_cost %g"
              s.best_cost s.current_cost;
            Result.iter_error
              (fun msg -> raise (Invalid (at ^ ".rng", msg)))
              (Rng.of_state s.rng) );
  ]

(* ---- sa-lab/supervisor-report/v1 ---- *)

let supervisor_report =
  let outcome extra = Obj [ req "label" non_empty_string; req "attempts" positive_int; extra ] in
  Obj
    (reqs non_negative_int [ "completed"; "quarantined"; "retries" ]
    @ [
        req "outcomes"
          (list
             (Tagged
                ( "status",
                  [
                    ("completed", outcome (req "seconds" non_negative));
                    ("quarantined", outcome (req "reason" non_empty_string));
                  ] )));
      ])

let supervisor_invariants =
  [
    ( "the completed and quarantined tallies match the outcomes",
      fun doc ->
        List.iter
          (fun status ->
            let listed = count (fun o -> string_of "status" o = status) (items "outcomes" doc) in
            agree status (int_of status doc) "the outcomes with that status" listed)
          [ "completed"; "quarantined" ] );
  ]

(* ---- sa-lab/portfolio-report/v1 ---- *)

(* Costs are numbers, or null: a job that could not start scores
   [infinity], which the JSON writer renders as null. *)
let standing =
  Obj
    (reqs (Nullable number) [ "best_cost"; "final_cost" ]
    @ [
        req "label" non_empty_string;
        req "evaluations" non_negative_int;
        req "failed" (Nullable string);
      ])

let portfolio_report =
  Obj
    [
      req "mode" (Enum [ "race"; "sweep" ]);
      req "jobs" positive_int;
      req "stopped_early" Bool;
      req "total_evaluations" non_negative_int;
      req "winner" standing;
      req "rounds"
        (non_empty_list
           (Obj
              [
                req "round" int;
                req "budget_evaluations" non_negative_int;
                req "results" (non_empty_list standing);
                req "culled" (list string);
              ]));
    ]

let portfolio_invariants =
  let labels round = List.map (string_of "label") (items "results" round) in
  [
    ( "rounds[i].round = i + 1",
      fun doc ->
        List.iteri
          (fun i r ->
            ensure (int_of "round" r = i + 1) (index_path "rounds" i ^ ".round") "is %d, not %d"
              (int_of "round" r) (i + 1))
          (items "rounds" doc) );
    ( "round 1 ran every job",
      fun doc ->
        let first = List.hd (items "rounds" doc) in
        agree "rounds[0].results" (List.length (labels first)) "jobs" (int_of "jobs" doc) );
    ( "every culled label ran in that round",
      each "rounds" (fun at r ->
          each ~at "culled" (fun at c ->
              let label = match c with Obs.Json.String l -> l | _ -> "" in
              ensure (List.mem label (labels r)) at "%S did not run this round" label)
            r) );
    ( "the winner is in the last round",
      fun doc ->
        let winner = string_of "label" (field "winner" doc) in
        let last = List.hd (List.rev (items "rounds" doc)) in
        ensure (List.mem winner (labels last)) "winner.label"
          "%S is not in the last round's results" winner );
  ]

(* ---- sa-lab/telemetry/v1 (the /runs snapshot) ---- *)

let pool_counters = [ "tasks_run"; "steals"; "queue_depth"; "busy_seconds"; "idle_seconds" ]

let run_slot =
  Obj
    (reqs non_negative_int [ "rung"; "temp"; "evaluations"; "proposed"; "accepted" ]
    @ reqs (Nullable number) [ "y"; "best_cost"; "current_cost" ]
    @ [
        req "label" non_empty_string;
        req "status" (Enum [ "pending"; "running"; "done"; "culled" ]);
        req "seconds" non_negative;
      ])

let telemetry =
  let pool = Obj (req "workers" positive_int :: reqs (list non_negative) pool_counters) in
  Obj [ req "runs" (non_empty_list run_slot); opt "pool" pool ]

let telemetry_invariants =
  [
    ("accepted <= proposed", each "runs" (no_more "accepted" "proposed"));
    ( "every pool.* list has workers entries",
      within "pool" (fun at pool ->
          List.iter
            (fun name ->
              let workers = int_of "workers" pool in
              agree (at ^ "." ^ name) (List.length (items name pool)) "workers" workers)
            pool_counters) );
  ]

(* ---- Dispatch ---- *)

let schemas =
  [
    ("sa-lab/bench-results/v2", (bench_results, []));
    ("sa-lab/lint-report/v2", (lint_report, lint_invariants));
    (Checkpoint.schema, (checkpoint, checkpoint_invariants));
    ("sa-lab/supervisor-report/v1", (supervisor_report, supervisor_invariants));
    ("sa-lab/portfolio-report/v1", (portfolio_report, portfolio_invariants));
    ("sa-lab/telemetry/v1", (telemetry, telemetry_invariants));
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("check_json: " ^ msg); exit 1) fmt

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: check_json FILE.json";
        exit 2
  in
  if not (Sys.file_exists path) then fail "%s: no such file" path;
  let json =
    match Obs.Json.parse (String.trim (In_channel.with_open_bin path In_channel.input_all)) with
    | Ok j -> j
    | Error msg -> fail "%s: malformed JSON: %s" path msg
  in
  let schema, (shape, invariants) =
    match Obs.Json.member "schema" json with
    | Some (Obs.Json.String s) when List.mem_assoc s schemas -> (s, List.assoc s schemas)
    | Some (Obs.Json.String s) -> fail "%s: unknown schema %S" path s
    | _ -> fail "%s: schema: missing, or not a string" path
  in
  (* A checkpoint's rules apply to its payload, once the resilience
     library's own reader has verified the CRC. *)
  let root, doc =
    if schema <> Checkpoint.schema then ("", json)
    else match Checkpoint.read ~path with Ok p -> ("payload", p) | Error msg -> fail "%s" msg
  in
  (try
     check root shape doc;
     List.iter
       (fun (name, holds) ->
         try holds doc with Invalid (at, msg) -> raise (Invalid (at, msg ^ " (" ^ name ^ ")")))
       invariants
   with Invalid (at, msg) -> fail "%s: %s: %s" path at msg);
  Printf.printf "check_json: %s ok (%s)\n" path schema
