(** The rule abstraction and registry.

    A rule is a [Structure] check (run over the parsetree of each
    [.ml] file) or a [Typed] check (run once over the whole-program
    call graph built from [.cmt] files — the effect and race
    rules).  Rules are registered once at startup
    ({!Lint_rules.register_builtin}, {!Race_rules.register_builtin})
    and looked up by name for documentation, [--explain], and
    suppression validation. *)

(** What a structure rule sees about the file it is checking. *)
type source_file = {
  path : string;  (** relative to the scan root, ['/']-separated *)
  kind : [ `Ml | `Mli ];
  in_lib : bool;  (** the path starts with ["lib/"] *)
  lib_unit : string option;
      (** first segment under [lib/], e.g. [Some "rng"] for
          ["lib/rng/rng.ml"] *)
  source : string;  (** raw file contents *)
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
  doc : string;  (** one-line description for [--list-rules] and JSON *)
  explain : string;
      (** the longer story behind the rule, printed by
          [sa_lint --explain <rule>] *)
  check : check;
}

val classify : root:string -> path:string -> source:string -> source_file
(** Build a [source_file] for [path] (relative to [root]). *)

val register : t -> unit
(** Add a rule to the registry.  Re-registering the same name replaces
    the previous entry (keeps test re-runs idempotent). *)

val all : unit -> t list
(** Registered rules, in registration order. *)

val find : string -> t option

val diag :
  rule:t ->
  file:source_file ->
  loc:Location.t ->
  string ->
  Lint_diagnostic.t
(** Convenience constructor mapping a compiler location to a
    diagnostic (with an empty trace). *)

val fingerprint : unit -> string
(** Digest of the registered rule set — part of every incremental
    cache key, so editing the rules invalidates cached results. *)
