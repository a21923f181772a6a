(* Stale documentation references.  Every backquoted [Module.name] in
   the given markdown files must name a module and something in it: a
   module that is a source file under the given directories must still
   mention the name in its .ml or .mli, and any other module must be an
   installed interface under the [--installed] directories (the
   compiler's standard library, [unix], [threads], [compiler-libs])
   that mentions it.  A dotted word that names an existing file
   ([BENCHMARK.json]) is a path, not a reference.  Every backquoted
   path under one of [path_roots] must name a file or directory, a
   [.exe] or extensionless name standing for its [.ml].  Fenced code
   blocks are skipped by those two checks.  With [--commands FILE], every
   [sa_lab WORD] or [sa_lab.exe -- WORD] in a backquoted span or a
   fenced block must name a subcommand, a [Cmd.info "WORD"] in FILE.
   Prints one line per stale reference and exits 1 if there is any.
   Paths resolve against the working directory.

   Usage: doc_refs DIR... [--installed DIR]... [--commands FILE] -- DOC... *)

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Module name -> the texts of its files under [dir] with one of
   [suffixes]. *)
let rec scan ~suffixes modules dir =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then scan ~suffixes modules path
      else if List.exists (Filename.check_suffix entry) suffixes then begin
        let m = String.capitalize_ascii (Filename.remove_extension entry) in
        let texts = Option.value (Hashtbl.find_opt modules m) ~default:[] in
        Hashtbl.replace modules m (read path :: texts)
      end)
    (Sys.readdir dir)

(* [name] occurs in [text] as a whole identifier. *)
let mentions text name =
  let n = String.length text and k = String.length name in
  let rec from i =
    i + k <= n
    && ((String.sub text i k = name
        && (i = 0 || not (is_ident text.[i - 1]))
        && (i + k = n || not (is_ident text.[i + k])))
       || from (i + 1))
  in
  from 0

(* The document split in two, line numbers kept: its prose with every
   fenced block blanked, and its fenced blocks with the prose blanked. *)
let split_fences doc =
  let fenced = ref false in
  let lines =
    String.split_on_char '\n' (read doc)
    |> List.map (fun line ->
           let fence = String.starts_with ~prefix:"```" (String.trim line) in
           if fence then fenced := not !fenced;
           if fence then ("", "") else if !fenced then ("", line) else (line, ""))
  in
  (String.concat "\n" (List.map fst lines), String.concat "\n" (List.map snd lines))

(* Every match of [re] in [text], as (offset of group [g], group [g]). *)
let matches re g text =
  let rec from i acc =
    match Str.search_forward re text i with
    | exception Not_found -> List.rev acc
    | _ -> from (Str.match_end ()) ((Str.group_beginning g, Str.matched_group g text) :: acc)
  in
  from 0 []

(* The subcommands a CLI source declares: its [Cmd.info "NAME"]s. *)
let commands_of path =
  List.map snd (matches (Str.regexp {|Cmd\.info[ \n]+"\([a-z_-]+\)"|}) 1 (read path))

(* The words invoked as sa_lab subcommands in [text]. *)
let invoked =
  matches (Str.regexp {|\(^\|[^A-Za-z0-9_]\)sa_lab\(\.exe --\)? +\([a-z][a-z0-9_-]*\)|}) 3

(* The dotted paths [A.b.c] in [span] that start at an identifier
   boundary; a word after a ['/'] is part of a file path, not one. *)
let paths span =
  let n = String.length span in
  let ident i =
    let j = ref i in
    while !j < n && is_ident span.[!j] do incr j done;
    !j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if
      is_ident span.[i] && (i = 0 || not (is_ident span.[i - 1] || String.contains "./" span.[i - 1]))
    then begin
      let rec path i parts =
        let j = ident i in
        let parts = String.sub span i (j - i) :: parts in
        if j + 1 < n && span.[j] = '.' && is_ident span.[j + 1] then path (j + 1) parts
        else (j, List.rev parts)
      in
      let j, parts = path i [] in
      go j (parts :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let mentions_ellipsis word =
  let n = String.length word in
  let rec from i = i + 3 <= n && (String.sub word i 3 = "..." || from (i + 1)) in
  from 0

let path_roots = [ "lib/"; "bin/"; "bench/"; "test/"; "examples/"; "data/" ]

(* The repo paths a span names: its words under [path_roots], with
   surrounding punctuation and a [:LINE] suffix dropped; patterns and
   placeholders ([data/*.net], [examples/<name>.exe], [data/...]) are
   not paths. *)
let repo_paths span =
  String.split_on_char ' ' (String.map (fun c -> if c = '\n' then ' ' else c) span)
  |> List.filter_map (fun word ->
         let word = List.hd (String.split_on_char ':' word) in
         let word =
           let strip = "()[],;'\"" in
           let n = String.length word in
           let i = ref 0 and j = ref n in
           while !i < n && String.contains strip word.[!i] do incr i done;
           while !j > !i && String.contains strip word.[!j - 1] do decr j done;
           String.sub word !i (!j - !i)
         in
         if
           List.exists (fun prefix -> String.starts_with ~prefix word) path_roots
           && not (String.exists (fun c -> String.contains "*<>{}$" c) word)
           && not (mentions_ellipsis word)
         then Some word
         else None)

let path_exists path =
  Sys.file_exists path
  || (Filename.check_suffix path ".exe"
     && Sys.file_exists (Filename.remove_extension path ^ ".ml"))
  || (Filename.extension path = "" && Sys.file_exists (path ^ ".ml"))

let check ~sources ~installed ~commands doc =
  let text, code = split_fences doc in
  let stale = ref 0 in
  let line_in t i =
    let l = ref 1 in
    String.iteri (fun k c -> if k < i && c = '\n' then incr l) t;
    !l
  in
  let line_of = line_in text in
  let check_invoked line span =
    List.iter
      (fun (i, word) ->
        if not (List.mem word commands) then begin
          incr stale;
          Printf.printf "%s:%d: `sa_lab %s`: no such subcommand\n" doc (line i) word
        end)
      (if commands = [] then [] else invoked span)
  in
  check_invoked (line_in code) code;
  let rec spans i =
    match String.index_from_opt text i '`' with
    | None -> ()
    | Some a -> (
        match String.index_from_opt text (a + 1) '`' with
        | None -> ()
        | Some b ->
            let span = String.sub text (a + 1) (b - a - 1) in
            check_invoked (fun _ -> line_of a) span;
            List.iter
              (fun path ->
                if not (path_exists path) then begin
                  incr stale;
                  Printf.printf "%s:%d: `%s`: no such file or directory\n" doc (line_of a) path
                end)
              (repo_paths span);
            List.iter
              (function
                | (m :: name :: _) as parts
                  when m.[0] >= 'A' && m.[0] <= 'Z'
                       && not (Sys.file_exists (String.concat "." parts)) -> (
                    let texts =
                      match Hashtbl.find_opt sources m with
                      | None -> Hashtbl.find_opt installed m
                      | found -> found
                    in
                    let report what =
                      incr stale;
                      Printf.printf "%s:%d: `%s.%s`: %s\n" doc (line_of a) m name what
                    in
                    match texts with
                    | None -> report (Printf.sprintf "no module %s" m)
                    | Some texts when not (List.exists (fun t -> mentions t name) texts) ->
                        report (Printf.sprintf "%s has no %s" m name)
                    | Some _ -> ())
                | _ -> ())
              (paths span);
            spans (b + 1))
  in
  spans 0;
  !stale

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let commands = ref [] in
  let rec split dirs installed = function
    | "--" :: docs -> (List.rev dirs, List.rev installed, docs)
    | "--installed" :: d :: rest -> split dirs (d :: installed) rest
    | "--commands" :: f :: rest ->
        commands := commands_of f;
        split dirs installed rest
    | d :: rest -> split (d :: dirs) installed rest
    | [] -> (List.rev dirs, List.rev installed, [])
  in
  let dirs, installed_dirs, docs = split [] [] args in
  let sources = Hashtbl.create 256 and installed = Hashtbl.create 512 in
  List.iter (scan ~suffixes:[ ".ml"; ".mli" ] sources) dirs;
  List.iter (scan ~suffixes:[ ".mli" ] installed) installed_dirs;
  let stale =
    List.fold_left
      (fun acc doc -> acc + check ~sources ~installed ~commands:!commands doc)
      0 docs
  in
  if stale > 0 then exit 1
