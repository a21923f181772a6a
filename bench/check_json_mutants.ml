(* Mutation corpus for check_json, wired into `dune runtest` via the
   check-json-mutants alias.

   usage: check_json_mutants CHECK_JSON.exe SAMPLE.json...

   Every committed sample (bench/check_json_samples/, one or more per
   sa-lab/*/vN schema, each a real producer's output) is mutated at
   every node of its JSON tree:

   - the member (or list element) deleted;
   - the value replaced by null, true, "", "x", [], {}, 0, -1 and 1e9;
   - an integer changed by +1 and -1.

   Each mutant is written to a scratch file and checked by the real
   check_json binary.  One line per mutant goes to stdout,
   "<verdict> <sample> <path> <op>" with verdict accept or reject (or
   "exit N" for any other status); the rule diffs those lines against
   the committed verdicts file, so a validator change that accepts or
   rejects a different set of documents fails the alias.

   Checkpoint samples are mutated inside the CRC envelope: each mutated
   payload is re-sealed with [Checkpoint.write], so the payload rules
   are reached.  The envelope's own members get the same mutations
   unsealed (path prefix "envelope:"), which the CRC or the envelope
   decoder must refuse.

   A rejection must name what it rejects: its message has to mention
   a member on the mutated path ("rounds" or "culled" for
   rounds[2].culled[0]; a cross-field rule names the container it
   checks).  Unsealed envelope mutants may instead be refused as a CRC
   mismatch. *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("check-json-mutants: " ^ msg);
      exit 1)
    fmt

type step = Key of string | Index of int

let render_path steps =
  let b = Buffer.create 32 in
  List.iter
    (function
      | Key k ->
          if Buffer.length b > 0 then Buffer.add_char b '.';
          Buffer.add_string b k
      | Index i -> Printf.bprintf b "[%d]" i)
    steps;
  Buffer.contents b

let replacements =
  Obs.Json.
    [
      ("=null", Null);
      ("=true", Bool true);
      ("=\"\"", String "");
      ("=\"x\"", String "x");
      ("=[]", List []);
      ("={}", Obj []);
      ("=0", Int 0);
      ("=-1", Int (-1));
      ("=1e9", Float 1e9);
    ]

(* Every mutant of [doc] as (path, op, mutated document), in document
   order; the root itself is not mutated.  [deep:false] mutates only
   the root's members.  In [visit], [edit] rebuilds the document with
   the node replaced ([Some v]) or removed ([None]); in [children] it
   rebuilds the document around a new container. *)
let mutants ?(deep = true) doc =
  let out = ref [] in
  let rec visit rev_path edit v =
    let path = render_path (List.rev rev_path) in
    let emit op v' = out := (path, op, edit v') :: !out in
    emit "delete" None;
    List.iter (fun (op, r) -> if r <> v then emit op (Some r)) replacements;
    (match v with
    | Obs.Json.Int n ->
        emit "+1" (Some (Obs.Json.Int (n + 1)));
        emit "-1" (Some (Obs.Json.Int (n - 1)))
    | _ -> ());
    if deep then children rev_path (fun v' -> edit (Some v')) v
  and children rev_path edit = function
    | Obs.Json.Obj members ->
        List.iter
          (fun (k, child) ->
            let rebuild r =
              List.filter_map
                (fun (k', c) -> if k' <> k then Some (k', c) else Option.map (fun r -> (k, r)) r)
                members
            in
            visit (Key k :: rev_path) (fun r -> edit (Obs.Json.Obj (rebuild r))) child)
          members
    | Obs.Json.List items ->
        List.iteri
          (fun i child ->
            let rebuild r =
              List.concat (List.mapi (fun j c -> if j <> i then [ c ] else Option.to_list r) items)
            in
            visit (Index i :: rev_path) (fun r -> edit (Obs.Json.List (rebuild r))) child)
          items
    | _ -> ()
  in
  children [] Fun.id doc;
  List.rev !out

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let parse path =
  match Obs.Json.parse (String.trim (read_file path)) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

(* The member names along a rendered path: "rounds[2].culled[0]" gives
   ["rounds"; "culled"]. *)
let path_keys path =
  String.split_on_char '.' path
  |> List.map (fun k ->
         match String.index_opt k '[' with Some i -> String.sub k 0 i | None -> k)
  |> List.filter (fun k -> k <> "" && k <> "$")

let mentions message word =
  let message = String.lowercase_ascii message and word = String.lowercase_ascii word in
  let n = String.length word and m = String.length message in
  let rec at i = i + n <= m && (String.sub message i n = word || at (i + 1)) in
  at 0

let run_check exe file =
  let err = file ^ ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe [| exe; file |] Unix.stdin null fd in
  Unix.close fd;
  Unix.close null;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> "accept"
    | Unix.WEXITED 1 -> "reject"
    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s
  in
  (status, String.trim (read_file err))

let () =
  let exe, samples =
    match Array.to_list Sys.argv with
    | _ :: exe :: (_ :: _ as samples) -> (exe, samples)
    | _ ->
        prerr_endline "usage: check_json_mutants CHECK_JSON.exe SAMPLE.json...";
        exit 2
  in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let scratch = "check_json_mutant.json" in
  let unnamed = ref [] in
  List.iter
    (fun sample ->
      let name = Filename.basename sample in
      let doc = parse sample in
      let judge ?(envelope = false) path op write =
        write ();
        let verdict, message = run_check exe scratch in
        Printf.printf "%s %s %s%s %s\n" verdict name
          (if envelope then "envelope:" else "")
          path op;
        let named =
          List.exists (mentions message) (path_keys path)
          || (envelope && mentions message "CRC")
        in
        if verdict = "reject" && not named then
          unnamed := Printf.sprintf "%s %s %s: %s" name path op message :: !unnamed
      in
      let write_json m () = write_file scratch (Obs.Json.to_string m) in
      judge "$" "original" (fun () -> write_file scratch (read_file sample));
      match Obs.Json.member "schema" doc with
      | Some (Obs.Json.String s) when s = Checkpoint.schema ->
          let payload =
            match Obs.Json.member "payload" doc with
            | Some p -> p
            | None -> fail "%s: checkpoint sample without a payload" sample
          in
          List.iter
            (fun (path, op, m) -> judge ~envelope:true path op (write_json m))
            (mutants ~deep:false doc);
          List.iter
            (fun (path, op, m) ->
              judge ("payload." ^ path) op (fun () -> Checkpoint.write ~path:scratch m))
            (mutants payload)
      | _ -> List.iter (fun (path, op, m) -> judge path op (write_json m)) (mutants doc))
    samples;
  (try Sys.remove scratch with Sys_error _ -> ());
  (try Sys.remove (scratch ^ ".err") with Sys_error _ -> ());
  match !unnamed with
  | [] -> ()
  | l ->
      List.iter prerr_endline (List.rev l);
      fail "%d rejections do not name a field" (List.length l)
