type source_file = {
  path : string;
  kind : [ `Ml | `Mli ];
  in_lib : bool;
  lib_unit : string option;
  source : string;
}

type check =
  | Structure of (source_file -> Parsetree.structure -> Lint_diagnostic.t list)
  | Typed of
      (policy:Callgraph.policy ->
      Callgraph.program ->
      Lint_diagnostic.t list)

type t = {
  name : string;
  severity : Lint_diagnostic.severity;
  doc : string;
  explain : string;
  check : check;
}

let classify ~root:_ ~path ~source =
  let kind = if Filename.check_suffix path ".mli" then `Mli else `Ml in
  let segments = String.split_on_char '/' path in
  let in_lib, lib_unit =
    match segments with
    | "lib" :: unit :: _ :: _ -> (true, Some unit)
    | "lib" :: _ -> (true, None)
    | _ -> (false, None)
  in
  { path; kind; in_lib; lib_unit; source }

let registry : t list ref = ref []

let register r =
  registry := List.filter (fun r' -> r'.name <> r.name) !registry @ [ r ]

let all () = !registry
let find name = List.find_opt (fun r -> r.name = name) !registry

let diag ~rule ~file ~loc message =
  let open Lexing in
  let s = loc.Location.loc_start and e = loc.Location.loc_end in
  {
    Lint_diagnostic.rule = rule.name;
    severity = rule.severity;
    file = file.path;
    line = s.pos_lnum;
    col = s.pos_cnum - s.pos_bol;
    end_line = e.pos_lnum;
    end_col = e.pos_cnum - e.pos_bol;
    message;
    trace = [];
  }

(* Fingerprint of the registered rule set; changing any rule's name,
   severity, doc, or the set itself invalidates every cache entry. *)
let fingerprint () =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun r ->
               r.name ^ "\x00"
               ^ Lint_diagnostic.severity_name r.severity
               ^ "\x00" ^ r.doc)
             !registry)))
