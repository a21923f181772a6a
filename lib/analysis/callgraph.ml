(* Cross-module call-graph extraction from typed trees.

   One [summary] per compilation unit: its module-level definitions
   (including those of nested non-functor submodules, keyed
   "Mod.Sub.name"), each with the primitive effects it performs
   directly and the module-level values it references; plus every call
   site of a pool scheduling function, with the references and
   primitives occurring inside that call's arguments (the task
   closures).

   Resolution notes — all deliberate over/under-approximations of a
   may-analysis:
   - every [Texp_ident] occurrence counts as a reference, applied or
     not, so effects flow through higher-order uses
     ([List.iter log_line xs]);
   - functor bodies and first-class-module contents are not entered:
     paths through [Papply] or unpacked modules do not resolve, so
     effects do not propagate through them (documented limitation);
   - a multi-pattern binding ([let a, b = ...]) attributes the whole
     right-hand side to each bound name. *)

open Typedtree

type def = {
  key : string;
  file : string;
  line : int;
  col : int;
  prims : Effects.prim list;
  calls : string list;
}

type pool_site = {
  in_def : string;
  callee : string;
  file : string;
  line : int;
  col : int;
  site_prims : Effects.prim list;
  refs : string list;
}

type summary = {
  modname : string;
  file : string;
  defs : def list;
  pool_sites : pool_site list;
}

type policy = {
  pool_modules : string list;
  pool_functions : string list;
  sink_patterns : string list;
}

let repo_policy =
  {
    pool_modules = [ "Pool" ];
    pool_functions = [ "map" ];
    sink_patterns =
      [
        (* the determinism bargain's report surfaces: racing/sweep
           reports, checkpoint documents, and the shared JSON writer
           they all render through *)
        "Portfolio.report_to_json";
        "Checkpoint.write";
        "Checkpoint.save_*";
        "Checkpoint.*_to_json";
        "Obs.Json.to_string";
        (* the job daemon's report surfaces: request-handler JSON
           views, the runner's result document, and the spec's
           canonical/fingerprint renderings — all must be pure
           functions of recorded state (a handler that stamps the
           clock or draws ambient randomness breaks the bit-identical
           resume contract) *)
        "Service.*_to_json";
        "Runner.result_to_json";
        "Job_spec.to_json";
        "Job_spec.fingerprint";
      ];
  }

(* Fingerprint folded into cache keys: cached summaries were extracted
   under a specific policy (pool sites are recorded at extraction
   time). *)
let policy_fingerprint p =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (p.pool_modules @ p.pool_functions @ p.sink_patterns)))

(* '*'-wildcard matcher for sink patterns ("Checkpoint.save_*"). *)
let glob_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi = np then si = ns
    else
      match pattern.[pi] with
      | '*' ->
          let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let strip_stdlib name =
  let prefix = "Stdlib." in
  let n = String.length prefix in
  if String.length name > n && String.sub name 0 n = prefix then
    String.sub name n (String.length name - n)
  else name

(* References into these units can never be definitions of this
   program; dropping them keeps summaries small. *)
let noise_root = function
  | "Stdlib" | "CamlinternalFormat" | "CamlinternalFormatBasics"
  | "CamlinternalLazy" | "CamlinternalOO" | "CamlinternalMod" ->
      true
  | _ -> false

let first_segment key =
  match String.index_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

(* ----------------------------------------------------------------- *)

type env = {
  mutable vals : (Ident.t * string) list;  (* module-level value idents *)
  mutable mods : (Ident.t * string) list;  (* nested module idents *)
}

let find_ident env id =
  List.find_map (fun (i, k) -> if Ident.same i id then Some k else None) env

let rec resolve_module env = function
  | Path.Pident id -> (
      match find_ident env.mods id with
      | Some k -> Some k
      (* an unregistered module ident names another compilation unit
         (or a local module we chose not to enter; references through
         it then resolve to a global name that matches nothing, which
         is the sound direction for a may-analysis) *)
      | None -> Some (Ident.name id))
  | Path.Pdot (base, s) ->
      Option.map (fun k -> k ^ "." ^ s) (resolve_module env base)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let resolve_value env = function
  | Path.Pident id -> find_ident env.vals id
  | Path.Pdot (base, s) ->
      Option.map (fun k -> k ^ "." ^ s) (resolve_module env base)
  | Path.Papply _ | Path.Pextra_ty _ -> None

(* The name of a mutation target when it is module-level state:
   [Pdot] always is (another unit's toplevel), [Pident] only if
   registered as a module-level value of this unit. *)
let global_target env e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident _ -> resolve_value env p
      | _ -> (
          match resolve_value env p with
          | Some k when not (noise_root (first_segment k)) -> Some k
          | _ -> None))
  | _ -> None

let pos_of loc =
  let s = loc.Location.loc_start in
  (s.Lexing.pos_lnum, s.Lexing.pos_cnum - s.Lexing.pos_bol)

(* Walk one expression, accumulating primitive effects and resolved
   references.  [synced] tracks enclosure in [Mutex.protect]'s
   arguments.  [on_pool_apply] fires on applications of the policy's
   scheduling functions (only the top-level walker registers sites;
   nested site scans pass [ignore]). *)
let scan_expr ~env ~policy ~on_pool_apply expr0 =
  let prims = ref [] and calls = ref [] in
  let synced = ref false in
  let add_prim p = prims := p :: !prims in
  let add_call k = if not (List.mem k !calls) then calls := k :: !calls in
  let classify_at loc name =
    List.iter
      (fun kind ->
        let line, col = pos_of loc in
        add_prim { Effects.kind; synced = !synced; name; line; col })
      (Effects.classify_use name)
  in
  let is_pool_callee key =
    match String.rindex_opt key '.' with
    | None -> false
    | Some i ->
        let m = String.sub key 0 i in
        let f = String.sub key (i + 1) (String.length key - i - 1) in
        List.mem m policy.pool_modules && List.mem f policy.pool_functions
  in
  let default = Tast_iterator.default_iterator in
  let expr it e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve_value env p with
        | Some key ->
            let name = strip_stdlib key in
            classify_at e.exp_loc name;
            if not (noise_root (first_segment key)) then add_call key
        | None -> ())
    | Texp_apply (f, args) -> (
        let fname =
          match f.exp_desc with
          | Texp_ident (p, _, _) ->
              Option.map strip_stdlib (resolve_value env p)
          | _ -> None
        in
        match fname with
        | Some name when Effects.sync_wrapper name ->
            let saved = !synced in
            synced := true;
            default.expr it e;
            synced := saved
        | Some name when Effects.atomic_mutator name ->
            (match args with
            | (_, Some arg0) :: _ -> (
                match global_target env arg0 with
                | Some target ->
                    let line, col = pos_of e.exp_loc in
                    add_prim
                      {
                        Effects.kind = Effects.Global_mutable;
                        synced = true;
                        name = Printf.sprintf "%s %s" name target;
                        line;
                        col;
                      }
                | None -> ())
            | _ -> ());
            default.expr it e
        | Some name when Effects.mutator name <> None ->
            (match args with
            | (_, Some arg0) :: _ -> (
                match global_target env arg0 with
                | Some target ->
                    let verb = Option.get (Effects.mutator name) in
                    let line, col = pos_of e.exp_loc in
                    add_prim
                      {
                        Effects.kind = Effects.Global_mutable;
                        synced = !synced;
                        name = Printf.sprintf "%s %s" verb target;
                        line;
                        col;
                      }
                | None -> ())
            | _ -> ());
            default.expr it e
        | Some name when is_pool_callee name ->
            on_pool_apply ~callee:name ~loc:e.exp_loc
              (List.filter_map (fun (_, a) -> a) args);
            default.expr it e
        | _ -> default.expr it e)
    | Texp_setfield (target, _, lbl, _) ->
        (match global_target env target with
        | Some tname ->
            let line, col = pos_of e.exp_loc in
            add_prim
              {
                Effects.kind = Effects.Global_mutable;
                synced = !synced;
                name =
                  Printf.sprintf "write to field %s of %s"
                    lbl.Types.lbl_name tname;
                line;
                col;
              }
        | None -> ());
        default.expr it e
    | _ -> default.expr it e
  in
  let it = { default with expr } in
  it.expr it expr0;
  (List.rev !prims, List.rev !calls)

let extract ~policy ~modname ~file str =
  let env = { vals = []; mods = [] } in
  let defs = ref [] and sites = ref [] in
  let unwrap_mod me =
    match me.mod_desc with
    | Tmod_constraint (inner, _, _, _) -> inner
    | _ -> me
  in
  let rec do_structure prefix str =
    (* pass 1: register this level's value and submodule idents so
       [let rec] and sibling references resolve *)
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun id ->
                    env.vals <-
                      (id, prefix ^ "." ^ Ident.name id) :: env.vals)
                  (pat_bound_idents vb.vb_pat))
              vbs
        | Tstr_module mb -> register_module prefix mb
        | Tstr_recmodule mbs -> List.iter (register_module prefix) mbs
        | _ -> ())
      str.str_items;
    (* pass 2: scan bindings, descend into plain submodules *)
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.iter (emit_binding prefix) vbs
        | Tstr_module mb -> descend prefix mb
        | Tstr_recmodule mbs -> List.iter (descend prefix) mbs
        | _ -> ())
      str.str_items
  and register_module prefix mb =
    match mb.mb_id with
    | Some id -> env.mods <- (id, prefix ^ "." ^ Ident.name id) :: env.mods
    | None -> ()
  and descend prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        match (unwrap_mod mb.mb_expr).mod_desc with
        | Tmod_structure sub ->
            do_structure (prefix ^ "." ^ Ident.name id) sub
        | _ -> () (* functors, applications, first-class repacks *))
  and emit_binding prefix vb =
    let bound = pat_bound_idents vb.vb_pat in
    let in_def =
      match bound with
      | id :: _ -> prefix ^ "." ^ Ident.name id
      | [] -> prefix ^ ".(init)"
    in
    let on_pool_apply ~callee ~loc args =
      (* scope the task closures separately: the race rules reason
         about what the *arguments* of the scheduling call can reach,
         not the whole enclosing definition *)
      let site_prims = ref [] and refs = ref [] in
      List.iter
        (fun arg ->
          let p, c =
            scan_expr ~env ~policy
              ~on_pool_apply:(fun ~callee:_ ~loc:_ _ -> ())
              arg
          in
          site_prims := !site_prims @ p;
          refs := !refs @ List.filter (fun k -> not (List.mem k !refs)) c)
        args;
      let line, col = pos_of loc in
      sites :=
        {
          in_def;
          callee;
          file;
          line;
          col;
          site_prims = !site_prims;
          refs = !refs;
        }
        :: !sites
    in
    let prims, calls = scan_expr ~env ~policy ~on_pool_apply vb.vb_expr in
    let line, col = pos_of vb.vb_pat.pat_loc in
    List.iter
      (fun id ->
        match find_ident env.vals id with
        | Some key -> defs := { key; file; line; col; prims; calls } :: !defs
        | None -> ())
      bound
  in
  do_structure modname str;
  { modname; file; defs = List.rev !defs; pool_sites = List.rev !sites }

(* ----------------------------------------------------------------- *)

type program = {
  defs : (string, def) Hashtbl.t;
  sites : pool_site list;
  modules : string list;
}

let program summaries =
  let defs = Hashtbl.create 512 in
  List.iter
    (fun (s : summary) ->
      List.iter (fun d -> Hashtbl.replace defs d.key d) s.defs)
    summaries;
  {
    defs;
    sites = List.concat_map (fun (s : summary) -> s.pool_sites) summaries;
    modules = List.map (fun (s : summary) -> s.modname) summaries;
  }

let find_def program key = Hashtbl.find_opt program.defs key
let modules program = program.modules
let pool_sites program = program.sites

let effect_info program =
  let nodes =
    Hashtbl.fold
      (fun _ d acc ->
        { Effects.n_key = d.key; n_prims = d.prims; n_calls = d.calls } :: acc)
      program.defs []
  in
  Effects.infer nodes

let sink_defs ~policy program =
  let matching =
    Hashtbl.fold
      (fun key d acc ->
        if
          List.exists
            (fun pattern -> glob_match ~pattern key)
            policy.sink_patterns
        then d :: acc
        else acc)
      program.defs []
  in
  List.sort (fun a b -> String.compare a.key b.key) matching

(* ----------------------------------------------------------------- *)
(* Summary (de)serialization for the incremental cache. *)

let def_to_json d =
  Obs.Json.Obj
    [
      ("key", Obs.Json.String d.key);
      ("line", Obs.Json.Int d.line);
      ("col", Obs.Json.Int d.col);
      ("prims", Obs.Json.List (List.map Effects.prim_to_json d.prims));
      ("calls", Obs.Json.List (List.map (fun c -> Obs.Json.String c) d.calls));
    ]

let site_to_json s =
  Obs.Json.Obj
    [
      ("in_def", Obs.Json.String s.in_def);
      ("callee", Obs.Json.String s.callee);
      ("line", Obs.Json.Int s.line);
      ("col", Obs.Json.Int s.col);
      ("prims", Obs.Json.List (List.map Effects.prim_to_json s.site_prims));
      ("refs", Obs.Json.List (List.map (fun c -> Obs.Json.String c) s.refs));
    ]

let summary_to_json s =
  Obs.Json.Obj
    [
      ("modname", Obs.Json.String s.modname);
      ("file", Obs.Json.String s.file);
      ("defs", Obs.Json.List (List.map def_to_json s.defs));
      ("pool_sites", Obs.Json.List (List.map site_to_json s.pool_sites));
    ]

let strings_of_json = function
  | Obs.Json.List l ->
      Some
        (List.filter_map
           (function Obs.Json.String s -> Some s | _ -> None)
           l)
  | _ -> None

let str_member name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let int_member name j = Option.bind (Obs.Json.member name j) Obs.Json.to_int

let prims_member name j =
  match Obs.Json.member name j with
  | Some (Obs.Json.List l) -> Some (List.filter_map Effects.prim_of_json l)
  | _ -> None

let def_of_json ~file j =
  match (str_member "key" j, int_member "line" j, int_member "col" j) with
  | Some key, Some line, Some col ->
      let prims = Option.value ~default:[] (prims_member "prims" j) in
      let calls =
        Option.value ~default:[]
          (Option.bind (Obs.Json.member "calls" j) strings_of_json)
      in
      Some { key; file; line; col; prims; calls }
  | _ -> None

let site_of_json ~file j =
  match
    ( str_member "in_def" j,
      str_member "callee" j,
      int_member "line" j,
      int_member "col" j )
  with
  | Some in_def, Some callee, Some line, Some col ->
      let site_prims = Option.value ~default:[] (prims_member "prims" j) in
      let refs =
        Option.value ~default:[]
          (Option.bind (Obs.Json.member "refs" j) strings_of_json)
      in
      Some { in_def; callee; file; line; col; site_prims; refs }
  | _ -> None

let summary_of_json j =
  match (str_member "modname" j, str_member "file" j) with
  | Some modname, Some file ->
      let list name of_json =
        match Obs.Json.member name j with
        | Some (Obs.Json.List l) -> Some (List.filter_map of_json l)
        | _ -> None
      in
      Option.bind (list "defs" (def_of_json ~file)) (fun defs ->
          Option.map
            (fun pool_sites -> { modname; file; defs; pool_sites })
            (list "pool_sites" (site_of_json ~file)))
  | _ -> None
