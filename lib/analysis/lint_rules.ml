(* The built-in rules.  Structure rules walk the parsetree with an
   [Ast_iterator] whose hooks append to an accumulator; everything here
   is syntactic — no typing pass — so the float-equality rule is an
   explicit heuristic. *)

open Parsetree

(* Longident.flatten raises on functor application paths; this total
   variant just drops them (none of the banned paths involve Lapply). *)
let flat lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> acc
  in
  go [] lid

(* [Stdlib.Random.int] and [Random.int] are the same thing. *)
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

(* Walk one structure, collecting diagnostics produced by [on_expr]
   and [on_module_path] hooks. *)
let walk ~rule ~file ?on_expr ?on_module_path str =
  let acc = ref [] in
  let add loc msg = acc := Lint_rule.diag ~rule ~file ~loc msg :: !acc in
  let default = Ast_iterator.default_iterator in
  let expr it e =
    (match on_expr with Some f -> f add e | None -> ());
    default.expr it e
  in
  let module_expr it me =
    (match (on_module_path, me.pmod_desc) with
    | Some f, Pmod_ident { txt; loc } -> f add ~loc (flat txt)
    | _ -> ());
    default.module_expr it me
  in
  let it = { default with expr; module_expr } in
  it.structure it str;
  List.rev !acc

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (flat txt))
  | _ -> None

(* ----------------------------------------------------------------- *)

let no_stdlib_random =
  let rec rule =
    {
      Lint_rule.name = "no-stdlib-random";
      severity = Lint_diagnostic.Error;
      doc =
        "Stdlib.Random is hidden global state; draw from an explicit Rng.t \
         (lib/rng) so every run is a pure function of its seed";
      explain =
        "The paper's tables are all statistics over repeated annealing runs, \
         and the whole apparatus (checkpoint/replay, racing portfolios, \
         property tests) assumes a run is a pure function of its recorded \
         seed. Stdlib.Random draws from one ambient generator shared by \
         everything in the process, so any extra draw anywhere reorders every \
         subsequent sample. Thread an explicit Rng.t (lib/rng), splitting \
         streams where parallelism needs independence.";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and check file str =
    if file.Lint_rule.lib_unit = Some "rng" then []
    else
      let banned add ~loc = function
        | "Random" :: _ :: _ ->
            add loc "use Rng instead of Stdlib.Random: runs must be a pure \
                     function of their seed"
        | _ -> ()
      in
      walk ~rule ~file
        ~on_expr:(fun add e ->
          match ident_path e with
          | Some path -> banned add ~loc:e.pexp_loc path
          | None -> ())
        ~on_module_path:(fun add ~loc path ->
          match strip_stdlib path with
          | [ "Random" ] ->
              add loc "use Rng instead of Stdlib.Random: runs must be a pure \
                       function of their seed"
          | _ -> ())
        str
  in
  rule

let no_self_init =
  let rec rule =
    {
      Lint_rule.name = "no-self-init";
      severity = Lint_diagnostic.Error;
      doc =
        "self_init seeds from wall-clock/PID entropy: every table in the \
         paper reproduction must be replayable from a recorded seed";
      explain =
        "Random.self_init (and Rng wrappers of it) seeds from wall-clock and \
         PID entropy, which makes the very first draw unreproducible — no \
         recorded artifact can replay it. Accept a seed from the caller and \
         build the generator with Rng.create ~seed; bin/ owns the one place \
         where a fresh seed may be minted (and must log it).";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and check file str =
    walk ~rule ~file
      ~on_expr:(fun add e ->
        match ident_path e with
        | Some path when List.exists (String.equal "self_init") path ->
            add e.pexp_loc
              "time-seeded randomness is banned: take a seed and build the \
               generator with Rng.create ~seed"
        | _ -> ())
      str
  in
  rule

let no_obj_magic =
  let rec rule =
    {
      Lint_rule.name = "no-obj-magic";
      severity = Lint_diagnostic.Error;
      doc = "Obj.magic defeats the type checker; there is no sound use here";
      explain =
        "Obj.magic is an unchecked coercion: the compiler believes whatever \
         type you assert, and a wrong assertion corrupts memory silently \
         instead of failing a test. Nothing in a numeric experiment repo \
         needs it — restructure with variants, GADTs, or first-class modules \
         instead.";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and check file str =
    walk ~rule ~file
      ~on_expr:(fun add e ->
        match ident_path e with
        | Some [ "Obj"; "magic" ] ->
            add e.pexp_loc "unchecked coercion: restructure the types instead"
        | _ -> ())
      str
  in
  rule

let no_catchall_exn =
  let rec rule =
    {
      Lint_rule.name = "no-catchall-exn";
      severity = Lint_diagnostic.Error;
      doc =
        "a bare `with _ ->` swallows Out_of_memory, Stack_overflow and \
         contract violations; match the exceptions you mean to handle";
      explain =
        "A bare `with _ ->` (or `match ... with exception _ ->`) catches \
         Out_of_memory, Stack_overflow, Assert_failure and every contract \
         violation alongside the error you meant to handle, converting \
         crashes into silently-wrong numbers. Name the exceptions the site \
         expects; let everything else propagate to the supervisor, which \
         records it per-run.";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and catchall_case c =
    match c.pc_lhs.ppat_desc with
    | Ppat_any -> Some c.pc_lhs.ppat_loc
    | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ } -> Some ppat_loc
    | _ -> None
  and check file str =
    walk ~rule ~file
      ~on_expr:(fun add e ->
        match e.pexp_desc with
        | Pexp_try (_, cases) ->
            List.iter
              (fun c ->
                match catchall_case c with
                | Some loc ->
                    add loc
                      "catch-all exception handler: name the exceptions this \
                       site expects"
                | None -> ())
              cases
        | Pexp_match (_, cases) ->
            (* [match ... with exception _ ->] is the same hazard. *)
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ } ->
                    add ppat_loc
                      "catch-all exception handler: name the exceptions this \
                       site expects"
                | _ -> ())
              cases
        | _ -> ())
      str
  in
  rule

let print_names =
  [
    "print_string"; "print_bytes"; "print_int"; "print_char"; "print_float";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes";
    "prerr_int"; "prerr_char"; "prerr_float"; "prerr_endline"; "prerr_newline";
  ]

let no_print_in_lib =
  let rec rule =
    {
      Lint_rule.name = "no-print-in-lib";
      severity = Lint_diagnostic.Error;
      doc =
        "library code must stay silent: report through Obs sinks so callers \
         own the channels (printing belongs to bin/ and bench/)";
      explain =
        "Printing from lib/ couples engine code to the process's std \
         channels: it garbles concurrent runs, breaks machine-readable \
         output modes, and can't be redirected per-run. Emit an Obs event or \
         accept a Format.formatter so the caller (bin/, bench/) decides \
         where bytes go.";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and check file str =
    if not file.Lint_rule.in_lib then []
    else
      walk ~rule ~file
        ~on_expr:(fun add e ->
          match ident_path e with
          | Some [ name ] when List.mem name print_names ->
              add e.pexp_loc
                (Printf.sprintf
                   "%s writes to the process's std channel from library code; \
                    emit an Obs event or take a formatter" name)
          | Some [ ("Printf" | "Format"); ("printf" | "eprintf") ] ->
              add e.pexp_loc
                "printf to a std channel from library code; emit an Obs event \
                 or take a formatter"
          | _ -> ())
        str
  in
  rule

let no_exit_in_lib =
  let rec rule =
    {
      Lint_rule.name = "no-exit-in-lib";
      severity = Lint_diagnostic.Error;
      doc =
        "exit from library code kills the whole process — under the \
         supervisor that would abort every remaining run of a campaign; \
         raise a typed exception and let bin/ pick the exit status";
      explain =
        "Stdlib.exit terminates the process from wherever it's called: under \
         the portfolio supervisor that aborts every remaining run of a \
         campaign and loses buffered telemetry. Library code should raise a \
         typed exception; only bin/ entry points translate failures into \
         exit statuses.";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and check file str =
    if not file.Lint_rule.in_lib then []
    else
      walk ~rule ~file
        ~on_expr:(fun add e ->
          match ident_path e with
          | Some [ "exit" ] ->
              add e.pexp_loc
                "exit terminates the whole process from library code; raise \
                 and let the caller decide"
          | _ -> ())
        str
  in
  rule

(* Syntactic "this operand is a float": literals, float arithmetic,
   float-returning stdlib names, and Float.* members. *)
let floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some [ ("+." | "-." | "*." | "/." | "**" | "~-." | "sqrt" | "exp" | "log") ] ->
          true
      | Some [ "float_of_int" ] -> true
      | Some ("Float" :: _) -> true
      | _ -> false)
  | Pexp_ident { txt; _ } -> (
      match strip_stdlib (flat txt) with
      | [ ("infinity" | "neg_infinity" | "nan" | "epsilon_float" | "max_float" | "min_float") ]
        ->
          true
      | _ -> false)
  | _ -> false

let no_physical_float_eq =
  let rec rule =
    {
      Lint_rule.name = "no-physical-float-eq";
      severity = Lint_diagnostic.Warning;
      doc =
        "=/== on float operands (syntactic heuristic): NaN breaks =, and == \
         compares boxes; compare against a tolerance or use Float.equal \
         deliberately";
      explain =
        "(=) on floats is false for NaN = NaN and true for -0. = 0., and \
         (==) compares boxed addresses, so both give surprising answers \
         exactly where annealing arithmetic produces edge values. Compare \
         |a - b| against a tolerance, or write Float.equal where \
         bit-equality is genuinely intended. The check is a syntactic \
         heuristic: it fires when either operand looks float-ish (literal, \
         float arithmetic, Float.* name).";
      check = Lint_rule.Structure (fun file str -> check file str);
    }
  and check file str =
    walk ~rule ~file
      ~on_expr:(fun add e ->
        match e.pexp_desc with
        | Pexp_apply (f, [ (_, a); (_, b) ]) -> (
            match ident_path f with
            | Some [ (("=" | "==" | "<>" | "!=") as op) ]
              when floatish a || floatish b ->
                add e.pexp_loc
                  (Printf.sprintf
                     "(%s) on a float operand: compare with a tolerance, or \
                      Float.equal if bit-equality is really meant" op)
            | _ -> ())
        | _ -> ())
      str
  in
  rule

let builtin () =
  [
    no_stdlib_random;
    no_self_init;
    no_obj_magic;
    no_catchall_exn;
    no_print_in_lib;
    no_exit_in_lib;
    no_physical_float_eq;
  ]

let register_builtin () = List.iter Lint_rule.register (builtin ())
