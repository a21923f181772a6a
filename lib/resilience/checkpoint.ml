(* Versioned, CRC-guarded resume snapshots.

   A checkpoint file is one JSON object:

     {"schema":"sa-lab/checkpoint/v1","crc":"<8 hex>","payload":{...}}

   The CRC-32 (IEEE) is computed over the compact rendering of the
   payload, so truncation, bit rot, or a hand-edit is detected before
   anything is decoded.  Writes go through a temp file plus [Sys.rename]
   so a crash mid-write leaves the previous checkpoint intact — the file
   at [path] is always either absent, the old snapshot, or the new one,
   never a prefix.

   Costs are persisted as IEEE-754 bit patterns ("0x%016Lx"): decimal
   JSON float text does not round-trip, and a resumed run must compare
   costs bit-for-bit with its uninterrupted twin. *)

let schema = "sa-lab/checkpoint/v1"

(* ------------------------------ CRC-32 --------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let crc_hex s = Printf.sprintf "%08lx" (crc32 s)

(* --------------------- bit-exact float encoding ------------------ *)

let hex_of_float f = Printf.sprintf "0x%016Lx" (Int64.bits_of_float f)

let float_of_hex s =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  if
    String.length s = 18
    && String.sub s 0 2 = "0x"
    && String.for_all is_hex (String.sub s 2 16)
  then Ok (Int64.float_of_bits (Int64.of_string s))
  else Error (Printf.sprintf "malformed float bit pattern %S" s)

(* --------------------------- raw file IO ------------------------- *)

let write ~path payload =
  let body = Obs.Json.to_string payload in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.String schema);
        ("crc", Obs.Json.String (crc_hex body));
        ("payload", payload);
      ]
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Sys.rename tmp path

let read ~path =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> fail "checkpoint %s: cannot read: %s" path msg
  | raw -> (
      match Obs.Json.parse raw with
      | Error msg -> fail "checkpoint %s: not valid JSON: %s" path msg
      | Ok doc -> (
          match
            ( Obs.Json.member "schema" doc,
              Obs.Json.member "crc" doc,
              Obs.Json.member "payload" doc )
          with
          | Some (Obs.Json.String s), _, _ when s <> schema ->
              fail "checkpoint %s: schema %S is not %S" path s schema
          | Some (Obs.Json.String _), Some (Obs.Json.String stored), Some payload
            ->
              let computed = crc_hex (Obs.Json.to_string payload) in
              if String.equal stored computed then Ok payload
              else
                fail
                  "checkpoint %s: CRC mismatch (stored %s, computed %s) — file \
                   is corrupt"
                  path stored computed
          | _ ->
              fail
                "checkpoint %s: missing schema, crc, or payload field — not a \
                 checkpoint file"
                path))

(* --------------------------- janitor ----------------------------- *)

(* Cadence snapshots are named "<job>-<seq>.ckpt" with a decimal
   sequence number; everything else in the directory is foreign and
   untouched.  Grouping is by the "<job>" stem, ordering by the
   numeric sequence (not mtime, which a restore or copy can
   scramble). *)
let parse_snapshot_name name =
  let suffix = ".ckpt" in
  let n = String.length name and ns = String.length suffix in
  if n <= ns || String.sub name (n - ns) ns <> suffix then None
  else
    let stem_seq = String.sub name 0 (n - ns) in
    match String.rindex_opt stem_seq '-' with
    | None | Some 0 -> None
    | Some i ->
        let stem = String.sub stem_seq 0 i in
        let seq = String.sub stem_seq (i + 1) (String.length stem_seq - i - 1)
        in
        if seq <> "" && String.for_all (fun c -> c >= '0' && c <= '9') seq
        then Some (stem, int_of_string seq)
        else None

let sweep_stale ~dir ~keep =
  if keep < 1 then invalid_arg "Checkpoint.sweep_stale: keep must be >= 1";
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let groups = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      match parse_snapshot_name name with
      | None -> ()
      | Some (stem, seq) ->
          let prev = try Hashtbl.find groups stem with Not_found -> [] in
          Hashtbl.replace groups stem ((seq, name) :: prev))
    entries;
  let deleted = ref [] in
  Hashtbl.iter
    (fun _stem snaps ->
      let newest_first =
        List.sort (fun (a, _) (b, _) -> Int.compare b a) snaps
      in
      List.iteri
        (fun i (_, name) ->
          if i >= keep then begin
            let path = Filename.concat dir name in
            match Sys.remove path with
            | () -> deleted := path :: !deleted
            | exception Sys_error _ -> ()
          end)
        newest_first)
    groups;
  List.sort String.compare !deleted

(* ----------------------- Figure 1 snapshots ---------------------- *)

let ( let* ) = Result.bind

let field name json =
  match Obs.Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name json =
  let* v = field name json in
  match Obs.Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S is not an integer" name)

let string_field name json =
  let* v = field name json in
  match v with
  | Obs.Json.String s -> Ok s
  | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.Int _ | Obs.Json.Float _
  | Obs.Json.List _ | Obs.Json.Obj _ ->
      Error (Printf.sprintf "field %S is not a string" name)

let cost_field name json =
  let* s = string_field name json in
  match float_of_hex s with
  | Ok f -> Ok f
  | Error msg -> Error (Printf.sprintf "field %S: %s" name msg)

let snapshot_to_json (s : Figure1.snapshot) =
  Obs.Json.Obj
    [
      ("ticks", Obs.Json.Int s.ticks);
      ("temp", Obs.Json.Int s.temp);
      ("counter", Obs.Json.Int s.counter);
      ("accepted_at_temp", Obs.Json.Int s.accepted_at_temp);
      ("defer_run", Obs.Json.Int s.defer_run);
      ("initial_cost", Obs.Json.String (hex_of_float s.initial_cost));
      ("current_cost", Obs.Json.String (hex_of_float s.current_cost));
      ("best_cost", Obs.Json.String (hex_of_float s.best_cost));
      ("improving", Obs.Json.Int s.improving);
      ("lateral_accepted", Obs.Json.Int s.lateral_accepted);
      ("uphill_accepted", Obs.Json.Int s.uphill_accepted);
      ("rejected", Obs.Json.Int s.rejected);
      ("rng", Obs.Json.String s.rng);
    ]

let snapshot_of_json json =
  let* ticks = int_field "ticks" json in
  let* temp = int_field "temp" json in
  let* counter = int_field "counter" json in
  let* accepted_at_temp = int_field "accepted_at_temp" json in
  let* defer_run = int_field "defer_run" json in
  let* initial_cost = cost_field "initial_cost" json in
  let* current_cost = cost_field "current_cost" json in
  let* best_cost = cost_field "best_cost" json in
  let* improving = int_field "improving" json in
  let* lateral_accepted = int_field "lateral_accepted" json in
  let* uphill_accepted = int_field "uphill_accepted" json in
  let* rejected = int_field "rejected" json in
  let* rng = string_field "rng" json in
  Ok
    {
      Figure1.ticks;
      temp;
      counter;
      accepted_at_temp;
      defer_run;
      initial_cost;
      current_cost;
      best_cost;
      improving;
      lateral_accepted;
      uphill_accepted;
      rejected;
      rng;
    }

let save_figure1 ?(observer = Obs.Observer.null) ~path ~codec ~fingerprint
    (snapshot : Figure1.snapshot) ~current ~best =
  let payload =
    Obs.Json.Obj
      [
        ("engine", Obs.Json.String "figure1");
        ("fingerprint", fingerprint);
        ("snapshot", snapshot_to_json snapshot);
        ("current", codec.Mc_problem.encode current);
        ("best", codec.Mc_problem.encode best);
      ]
  in
  write ~path payload;
  if Obs.Observer.enabled observer then
    Obs.Observer.emit observer
      (Obs.Event.Checkpoint_written { path; evaluation = snapshot.Figure1.ticks })

type load_error = Stale of string | Corrupt of string

let load_error_message = function Stale msg | Corrupt msg -> msg

let load_figure1 ~path ~codec ~fingerprint =
  let ctx msg = Printf.sprintf "checkpoint %s: %s" path msg in
  (* Everything that means "this file cannot be trusted" — unreadable,
     torn, wrong schema, undecodable — is [Corrupt]; only a clean file
     written under a different run configuration is [Stale]. *)
  let corrupt e = Result.map_error (fun msg -> Corrupt (ctx msg)) e in
  let* payload = Result.map_error (fun msg -> Corrupt msg) (read ~path) in
  let* engine = corrupt (string_field "engine" payload) in
  let* () =
    if String.equal engine "figure1" then Ok ()
    else
      Error
        (Corrupt (ctx (Printf.sprintf "written by engine %S, not figure1" engine)))
  in
  let* stored_fp = corrupt (field "fingerprint" payload) in
  let want = Obs.Json.to_string fingerprint in
  let got = Obs.Json.to_string stored_fp in
  let* () =
    if String.equal want got then Ok ()
    else
      Error
        (Stale
           (ctx
              (Printf.sprintf
                 "stale: its run fingerprint %s does not match this \
                  invocation's %s (same netlist, method, seed, and budget \
                  required)"
                 got want)))
  in
  let* snap_json = corrupt (field "snapshot" payload) in
  let* snapshot = corrupt (snapshot_of_json snap_json) in
  let* current_json = corrupt (field "current" payload) in
  let* current = corrupt (codec.Mc_problem.decode current_json) in
  let* best_json = corrupt (field "best" payload) in
  let* best = corrupt (codec.Mc_problem.decode best_json) in
  let* rng = corrupt (Rng.of_state snapshot.Figure1.rng) in
  Ok (snapshot, current, best, rng)

let resume_figure1 ~path ~codec ~cost ~fingerprint =
  let* ((snapshot, current, best, _) as loaded) =
    load_figure1 ~path ~codec ~fingerprint
  in
  (* A CRC-clean file can still hold states its costs do not describe
     (a codec bug, a hand edit rewritten through [write]); resuming
     from one would continue a walk that never happened. *)
  let priced what state saved =
    let live = cost state in
    if Int64.equal (Int64.bits_of_float live) (Int64.bits_of_float saved) then Ok ()
    else
      Error
        (Corrupt
           (Printf.sprintf
              "checkpoint %s: decoded %s cost %h does not match the snapshot's \
               %h — refusing to resume"
              path what live saved))
  in
  let* () = priced "state's" current snapshot.Figure1.current_cost in
  let* () = priced "best state's" best snapshot.Figure1.best_cost in
  Ok loaded
