type report = {
  files_scanned : int;
  files_reanalyzed : int;
  typed_modules : int;
  suppressions : int;
  rules : Lint_rule.t list;
  diagnostics : Lint_diagnostic.t list;
}

let skip_marker = "sa-lint.skip"

let is_source p =
  Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"

(* [_build] artifacts, hidden directories and marker-skipped trees are
   never linted.  The marker is only honoured below the requested
   roots, so `sa_lint test/lint_fixtures` still lints the fixtures. *)
let skip_dir name = name = "_build" || (String.length name > 0 && name.[0] = '.')

let scan_files ~root paths =
  let results = ref [] in
  let rec walk_dir rel abs =
    Array.iter
      (fun entry ->
        let rel' = if rel = "" then entry else rel ^ "/" ^ entry in
        let abs' = Filename.concat abs entry in
        if Sys.is_directory abs' then begin
          if
            (not (skip_dir entry))
            && not (Sys.file_exists (Filename.concat abs' skip_marker))
          then walk_dir rel' abs'
        end
        else if is_source entry then results := rel' :: !results)
      (Sys.readdir abs)
  in
  List.iter
    (fun path ->
      (* Normalize so "." / "./lib" requests classify the same as
         "lib": relative paths in reports never carry a "./" prefix. *)
      let path =
        let rec strip p =
          if p = "." then ""
          else if String.length p >= 2 && String.sub p 0 2 = "./" then
            strip (String.sub p 2 (String.length p - 2))
          else p
        in
        strip path
      in
      let abs = if path = "" then root else Filename.concat root path in
      if not (Sys.file_exists abs) then
        raise (Sys_error (Printf.sprintf "sa-lint: no such path: %s" abs))
      else if Sys.is_directory abs then walk_dir path abs
      else if is_source path then results := path :: !results)
    paths;
  List.sort_uniq String.compare !results

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The rule name of a file the front end rejects.  Not a registered
   rule: no other rule could look at such a file, and a lint pass that
   silently skipped it would report a clean tree that does not build.
   Parse errors drive the engine-error exit status (2), not the
   findings status (1). *)
let parse_error_rule = "parse-error"

let parse_error_diag (file : Lint_rule.source_file) exn =
  let line, col, end_line, end_col, message =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        let loc = report.Location.main.Location.loc in
        let s = loc.Location.loc_start and e = loc.Location.loc_end in
        ( s.Lexing.pos_lnum,
          s.Lexing.pos_cnum - s.Lexing.pos_bol,
          e.Lexing.pos_lnum,
          e.Lexing.pos_cnum - e.Lexing.pos_bol,
          Format.asprintf "%t" report.Location.main.Location.txt )
    | _ -> (1, 0, 1, 0, Printexc.to_string exn)
  in
  {
    Lint_diagnostic.rule = parse_error_rule;
    severity = Lint_diagnostic.Error;
    file = file.Lint_rule.path;
    line;
    col;
    end_line;
    end_col;
    message;
    trace = [];
  }

(* Line spans of every expression and structure item, fed to the
   suppression table so a directive covers its whole enclosing
   construct. *)
let spans_of_structure str =
  let acc = ref [] in
  let add loc =
    if not loc.Location.loc_ghost then
      acc :=
        (loc.Location.loc_start.Lexing.pos_lnum,
         loc.Location.loc_end.Lexing.pos_lnum)
        :: !acc
  in
  let default = Ast_iterator.default_iterator in
  let expr it e =
    add e.Parsetree.pexp_loc;
    default.expr it e
  in
  let structure_item it si =
    add si.Parsetree.pstr_loc;
    default.structure_item it si
  in
  let it = { default with expr; structure_item } in
  it.structure it str;
  !acc

(* Parse one implementation with the compiler's front end, also
   harvesting its comments for the suppression table.  Docstrings are
   plain comments here: directives may live in either. *)
let parse_ml (file : Lint_rule.source_file) =
  Lexer.handle_docstrings := false;
  let lexbuf = Lexing.from_string file.Lint_rule.source in
  Lexing.set_filename lexbuf file.Lint_rule.path;
  match Parse.implementation lexbuf with
  | str -> Ok (str, Lexer.comments ())
  | exception exn -> Error (parse_error_diag file exn)

(* Raw (pre-suppression) syntactic results for one [.ml] file. *)
let analyze_file structure_rules (file : Lint_rule.source_file) =
  match parse_ml file with
  | Error diag -> ([ diag ], Lint_suppress.empty)
  | Ok (str, comments) ->
      let table =
        Lint_suppress.of_comments ~spans:(spans_of_structure str) comments
      in
      let diags =
        List.concat_map
          (fun r ->
            match r.Lint_rule.check with
            | Lint_rule.Structure f -> f file str
            | Lint_rule.Typed _ -> [])
          structure_rules
      in
      (diags, table)

(* Map a compiler-recorded source path (how .cmt files name files,
   e.g. "test/typed_fixtures/fx_io.ml") onto the scanned path it
   corresponds to (e.g. "typed_fixtures/fx_io.ml"), so typed
   diagnostics use the same paths as syntactic ones and suppression
   tables apply.  Exact match first, then a '/'-boundary suffix
   match. *)
let normalize_path scanned file =
  if List.mem file scanned then Some file
  else
    List.find_opt
      (fun p ->
        let lf = String.length file and lp = String.length p in
        lf > lp
        && String.sub file (lf - lp) lp = p
        && file.[lf - lp - 1] = '/')
      scanned

let run ?rules ?cache ?typed ?cmt_dirs ~root paths =
  let rules = match rules with Some r -> r | None -> Lint_rule.all () in
  let scanned = scan_files ~root paths in
  let files =
    List.map
      (fun path ->
        let source = read_file (Filename.concat root path) in
        Lint_rule.classify ~root ~path ~source)
      scanned
  in
  let structure_rules, typed_rules =
    List.partition
      (fun r ->
        match r.Lint_rule.check with Lint_rule.Structure _ -> true | Lint_rule.Typed _ -> false)
      rules
  in
  (* Per-file syntactic pass, consulting the cache when one was
     given.  Cached entries hold the *raw* diagnostics plus the file's
     suppression table, so the suppression filter replays identically
     on a warm run. *)
  let suppress_tables = Hashtbl.create 64 in
  let reanalyzed = ref 0 in
  let per_file =
    List.concat_map
      (fun (file : Lint_rule.source_file) ->
        if file.Lint_rule.kind <> `Ml then []
        else begin
          let digest =
            Digest.to_hex (Digest.string file.Lint_rule.source)
          in
          let diags, table =
            match
              Option.bind cache (fun c ->
                  Lint_cache.find_file c ~path:file.Lint_rule.path ~digest)
            with
            | Some cached -> cached
            | None ->
                incr reanalyzed;
                let result = analyze_file structure_rules file in
                Option.iter
                  (fun c ->
                    Lint_cache.store_file c ~path:file.Lint_rule.path ~digest
                      result)
                  cache;
                result
          in
          Hashtbl.replace suppress_tables file.Lint_rule.path table;
          diags
        end)
      files
  in
  (* Typed pass: load (or fetch from cache) one call-graph summary per
     .cmt, build the whole-program view, run the typed rules, then
     rewrite compiler-recorded paths onto scanned ones. *)
  let typed_diags, typed_modules =
    match typed with
    | None -> ([], 0)
    | Some policy ->
        let dirs =
          match cmt_dirs with
          | Some d -> d
          | None -> Cmt_loader.default_dirs ~root paths
        in
        let seen_modules = Hashtbl.create 64 in
        let summaries =
          List.filter_map
            (fun path ->
              let digest = Cmt_loader.read_digest path in
              let summary =
                match
                  Option.bind cache (fun c ->
                      Lint_cache.find_summary c ~path ~digest)
                with
                | Some s -> Some s
                | None -> (
                    match Cmt_loader.load path with
                    | Ok
                        {
                          Cmt_loader.modname;
                          source = Some file;
                          structure = Some str;
                          _;
                        } ->
                        let s =
                          Callgraph.extract ~policy ~modname ~file str
                        in
                        Option.iter
                          (fun c ->
                            Lint_cache.store_summary c ~path ~digest s)
                          cache;
                        Some s
                    | Ok _ | Error _ -> None)
              in
              match summary with
              | Some s when not (Hashtbl.mem seen_modules s.Callgraph.modname)
                ->
                  Hashtbl.replace seen_modules s.Callgraph.modname ();
                  Some s
              | _ -> None)
            (Cmt_loader.find_cmts dirs)
        in
        let program = Callgraph.program summaries in
        let diags =
          List.concat_map
            (fun r ->
              match r.Lint_rule.check with
              | Lint_rule.Typed f -> f ~policy program
              | Lint_rule.Structure _ -> [])
            typed_rules
        in
        let fix_frame (f : Lint_diagnostic.frame) =
          match normalize_path scanned f.Lint_diagnostic.file with
          | Some p -> { f with Lint_diagnostic.file = p }
          | None -> f
        in
        let diags =
          List.map
            (fun (d : Lint_diagnostic.t) ->
              let d =
                match normalize_path scanned d.Lint_diagnostic.file with
                | Some p -> { d with Lint_diagnostic.file = p }
                | None -> d
              in
              { d with Lint_diagnostic.trace = List.map fix_frame d.trace })
            diags
        in
        (diags, List.length summaries)
  in
  let suppressed (d : Lint_diagnostic.t) =
    match Hashtbl.find_opt suppress_tables d.Lint_diagnostic.file with
    | None -> false
    | Some table ->
        Lint_suppress.suppressed table ~rule:d.Lint_diagnostic.rule
          ~line:d.Lint_diagnostic.line
  in
  let diagnostics =
    List.sort Lint_diagnostic.compare
      (List.filter
         (fun d -> not (suppressed d))
         (per_file @ typed_diags))
  in
  let suppressions =
    Hashtbl.fold (fun _ t acc -> acc + Lint_suppress.count t) suppress_tables 0
  in
  {
    files_scanned = List.length files;
    files_reanalyzed = !reanalyzed;
    typed_modules;
    suppressions;
    rules;
    diagnostics;
  }

let count severity report =
  List.length
    (List.filter
       (fun d -> d.Lint_diagnostic.severity = severity)
       report.diagnostics)

let error_count = count Lint_diagnostic.Error
let warning_count = count Lint_diagnostic.Warning

let parse_error_count report =
  List.length
    (List.filter
       (fun d -> d.Lint_diagnostic.rule = parse_error_rule)
       report.diagnostics)

let to_json ?baseline report =
  let diagnostics =
    match baseline with
    | None -> List.map (fun d -> Lint_diagnostic.to_json d) report.diagnostics
    | Some (marked, _) ->
        List.map
          (fun (d, baselined) -> Lint_diagnostic.to_json ~baselined d)
          marked
  in
  let baseline_fields =
    match baseline with
    | None -> []
    | Some (_, stats) ->
        [
          ( "baseline",
            Obs.Json.Obj
              [
                ("matched", Obs.Json.Int stats.Baseline.matched);
                ("fresh", Obs.Json.Int stats.Baseline.fresh);
                ("stale", Obs.Json.Int stats.Baseline.stale);
              ] );
        ]
  in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.String "sa-lab/lint-report/v2");
       ("files_scanned", Obs.Json.Int report.files_scanned);
       ("files_reanalyzed", Obs.Json.Int report.files_reanalyzed);
       ("typed_modules", Obs.Json.Int report.typed_modules);
       ("suppressions", Obs.Json.Int report.suppressions);
       ("error_count", Obs.Json.Int (error_count report));
       ("warning_count", Obs.Json.Int (warning_count report));
       ( "rules",
         Obs.Json.List
           (List.map
              (fun r ->
                Obs.Json.Obj
                  [
                    ("name", Obs.Json.String r.Lint_rule.name);
                    ( "severity",
                      Obs.Json.String
                        (Lint_diagnostic.severity_name r.Lint_rule.severity) );
                    ("doc", Obs.Json.String r.Lint_rule.doc);
                  ])
              report.rules) );
       ("diagnostics", Obs.Json.List diagnostics);
     ]
    @ baseline_fields)

let pp_text ?baseline ppf report =
  (match baseline with
  | None ->
      List.iter
        (fun d -> Format.fprintf ppf "%a@." Lint_diagnostic.pp d)
        report.diagnostics
  | Some (marked, _) ->
      List.iter
        (fun (d, baselined) ->
          if not baselined then
            Format.fprintf ppf "%a@." Lint_diagnostic.pp d)
        marked);
  Format.fprintf ppf "sa-lint: %d files scanned" report.files_scanned;
  if report.typed_modules > 0 then
    Format.fprintf ppf ", %d modules typed" report.typed_modules;
  Format.fprintf ppf ", %d errors, %d warnings" (error_count report)
    (warning_count report);
  if report.suppressions > 0 then
    Format.fprintf ppf " (%d suppressions)" report.suppressions;
  (match baseline with
  | Some (_, stats) ->
      Format.fprintf ppf "; baseline: %d matched, %d fresh, %d stale"
        stats.Baseline.matched stats.Baseline.fresh stats.Baseline.stale
  | None -> ());
  Format.fprintf ppf "@."
