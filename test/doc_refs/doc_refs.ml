(* Stale documentation references.  Every backquoted [Module.name] in
   the given markdown files, where [Module] is a source file under the
   given directories, must name something that still appears in that
   module's .ml or .mli; and every backquoted path under one of
   [path_roots] must name a file or directory, a [.exe] or
   extensionless name standing for its [.ml].  Prints one line per
   stale reference and exits 1 if there is any.  Fenced code blocks are
   skipped.  Paths resolve against the working directory.

   Usage: doc_refs DIR... -- DOC... *)

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Module name -> the texts of its .ml and .mli files under [dir]. *)
let rec scan modules dir =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then scan modules path
      else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then begin
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

(* The document with every fenced block blanked, line numbers kept. *)
let inline_text doc =
  let fenced = ref false in
  String.split_on_char '\n' (read doc)
  |> List.map (fun line ->
         let fence = String.starts_with ~prefix:"```" (String.trim line) in
         if fence then fenced := not !fenced;
         if fence || !fenced then "" else line)
  |> String.concat "\n"

(* The dotted paths [A.b.c] in [span] that start at an identifier
   boundary. *)
let paths span =
  let n = String.length span in
  let ident i =
    let j = ref i in
    while !j < n && is_ident span.[!j] do incr j done;
    !j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident span.[i] && (i = 0 || not (is_ident span.[i - 1] || span.[i - 1] = '.'))
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

let path_roots = [ "lib/"; "bin/"; "bench/"; "test/"; "examples/"; "data/" ]

(* The repo paths a span names: its words under [path_roots], with
   surrounding punctuation and a [:LINE] suffix dropped; patterns and
   placeholders ([data/*.net], [examples/<name>.exe]) are not paths. *)
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
         then Some word
         else None)

let path_exists path =
  Sys.file_exists path
  || (Filename.check_suffix path ".exe"
     && Sys.file_exists (Filename.remove_extension path ^ ".ml"))
  || (Filename.extension path = "" && Sys.file_exists (path ^ ".ml"))

let check modules doc =
  let text = inline_text doc in
  let stale = ref 0 in
  let line_of i =
    let l = ref 1 in
    String.iteri (fun k c -> if k < i && c = '\n' then incr l) text;
    !l
  in
  let rec spans i =
    match String.index_from_opt text i '`' with
    | None -> ()
    | Some a -> (
        match String.index_from_opt text (a + 1) '`' with
        | None -> ()
        | Some b ->
            let span = String.sub text (a + 1) (b - a - 1) in
            List.iter
              (fun path ->
                if not (path_exists path) then begin
                  incr stale;
                  Printf.printf "%s:%d: `%s`: no such file or directory\n" doc (line_of a) path
                end)
              (repo_paths span);
            List.iter
              (function
                | m :: name :: _ -> (
                    match Hashtbl.find_opt modules m with
                    | Some texts when not (List.exists (fun t -> mentions t name) texts) ->
                        incr stale;
                        Printf.printf "%s:%d: `%s.%s`: %s has no %s\n" doc (line_of a) m name m
                          name
                    | _ -> ())
                | _ -> ())
              (paths span);
            spans (b + 1))
  in
  spans 0;
  !stale

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split dirs = function
    | "--" :: docs -> (List.rev dirs, docs)
    | d :: rest -> split (d :: dirs) rest
    | [] -> (List.rev dirs, [])
  in
  let dirs, docs = split [] args in
  let modules = Hashtbl.create 256 in
  List.iter (scan modules) dirs;
  let stale = List.fold_left (fun acc doc -> acc + check modules doc) 0 docs in
  if stale > 0 then exit 1
