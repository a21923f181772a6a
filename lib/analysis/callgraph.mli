(** Cross-module call-graph extraction from typed trees.

    One {!summary} per compilation unit, built from its [.cmt]: the
    module-level definitions (nested non-functor submodules included,
    keyed ["Mod.Sub.name"]), each with the primitive effects it
    performs directly ({!Effects.prim}) and the module-level values it
    references; plus every call site of a pool scheduling function
    with the references made inside that call's arguments (the task
    closures the race rules reason about).

    The analysis is a may-analysis with documented blind spots: every
    [Texp_ident] occurrence counts as a reference (so effects flow
    through higher-order uses), but functor bodies and first-class
    modules are not entered — paths through them simply do not
    resolve. *)

type def = {
  key : string;  (** ["Portfolio.sweep"], ["Obs.Json.to_string"] *)
  file : string;  (** source path as the compiler recorded it *)
  line : int;
  col : int;
  prims : Effects.prim list;  (** primitive effects performed directly *)
  calls : string list;  (** resolved module-level references *)
}

type pool_site = {
  in_def : string;  (** enclosing definition's key *)
  callee : string;  (** e.g. ["Pool.map"] *)
  file : string;
  line : int;
  col : int;
  site_prims : Effects.prim list;
      (** primitive effects inside the call's arguments *)
  refs : string list;  (** references made inside the call's arguments *)
}

type summary = {
  modname : string;
  file : string;
  defs : def list;
  pool_sites : pool_site list;
}

(** What the typed rules enforce against: which functions schedule
    pool tasks, and which definitions are report-producing sinks. *)
type policy = {
  pool_modules : string list;
  pool_functions : string list;
  sink_patterns : string list;  (** ['*']-wildcard patterns over keys *)
}

val repo_policy : policy
(** This repository's policy: [Pool.map] tasks, and the
    portfolio-report / checkpoint / JSON-writer sinks. *)

val policy_fingerprint : policy -> string
(** Folded into cache keys: summaries record pool sites, so they are
    only valid under the policy that extracted them. *)

val glob_match : pattern:string -> string -> bool

val extract :
  policy:policy -> modname:string -> file:string -> Typedtree.structure ->
  summary

(** {1 Whole-program view} *)

type program

val program : summary list -> program
val find_def : program -> string -> def option
val modules : program -> string list

val effect_info : program -> Effects.info
(** Run the interprocedural inference over every definition. *)

val sink_defs : policy:policy -> program -> def list
(** Definitions matching the policy's sink patterns, sorted by key. *)

val pool_sites : program -> pool_site list

(** {1 Serialization (for the incremental cache)} *)

val summary_to_json : summary -> Obs.Json.t
val summary_of_json : Obs.Json.t -> summary option
