(** The effect lattice of the typed pass and its interprocedural
    inference.

    Four effect kinds matter to the determinism bargain: [Wallclock]
    (the result depends on when the code ran), [Ambient_random] (on
    RNG state not threaded from a split [Rng] stream),
    [Global_mutable] (module-level state was written — refined by an
    {e unsync} bit when the write is not ordered by [Mutex.protect] or
    [Atomic]), and [Blocking_io] (the calling domain can park in a
    syscall).  Extraction ({!Callgraph}) records primitive uses per
    definition; {!infer} closes them bottom-up over the call graph.
    Everything is a may-analysis: an inferred effect means "some path
    through this definition can perform it". *)

type kind = Wallclock | Ambient_random | Global_mutable | Blocking_io

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** A primitive effect use site inside one definition. *)
type prim = {
  kind : kind;
  synced : bool;
      (** [Global_mutable] performed under [Mutex.protect] or through
          [Atomic]: an effect, but not a data-race candidate *)
  name : string;
      (** what fired, e.g. ["Unix.gettimeofday"] or ["incr M.hits"] *)
  line : int;
  col : int;
}

(** {1 Effect sets (bitmasks)} *)

type set = int

val empty : set
val wallclock : set
val ambient_random : set
val global_mutable : set
val blocking_io : set

val unsync_mutable : set
(** Refinement of [global_mutable]: the mutation was not dominated by
    a [Mutex.protect] and did not go through [Atomic]. *)

val mem : set -> set -> bool
(** [mem mask s]: does [s] intersect [mask]? *)

val prim_bits : prim -> set

(** {1 Classification of resolved names}

    Names arrive fully resolved ("Unix.gettimeofday",
    "Hashtbl.replace") with any [Stdlib.] prefix stripped. *)

val classify_use : string -> kind list
(** Intrinsic effects of merely evaluating the named value
    ([Unix.select] is both [Wallclock] and [Blocking_io]). *)

val mutator : string -> string option
(** [Some verb] when the name mutates its first argument in place
    (ref assignment, [Hashtbl.replace], ...); the verb heads the
    primitive's display name. *)

val atomic_mutator : string -> bool
(** [Atomic] writes: [Global_mutable] with [synced = true]. *)

val sync_wrapper : string -> bool
(** [Mutex.protect]: mutations inside its arguments count as synced. *)

(** {1 Inference} *)

type node = { n_key : string; n_prims : prim list; n_calls : string list }

type info

val infer : node list -> info
(** Fixpoint of [eff(k) ⊇ eff(callee)] seeded from each node's
    primitive uses. *)

val effects : info -> string -> set
(** Inferred set for a definition key ([empty] for unknown keys). *)

val trace : info -> string -> mask:set -> (string list * prim) option
(** The witnessing call chain (from the queried definition down to the
    definition containing the primitive) and the primitive itself, for
    the lowest bit of [mask] present; [None] when the effect is
    absent. *)

(** {1 Serialization (for the incremental cache)} *)

val prim_to_json : prim -> Obs.Json.t
val prim_of_json : Obs.Json.t -> prim option
