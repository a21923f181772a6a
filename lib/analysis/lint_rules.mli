(** The built-in rule catalog: the repo's determinism and engine
    invariants, encoded.

    - [no-stdlib-random] (error): all randomness must flow through
      [Rng]; [Stdlib.Random] is banned outside [lib/rng].
    - [no-self-init] (error): time-seeded generators destroy run
      reproducibility everywhere, including [lib/rng].
    - [no-obj-magic] (error): no unchecked coercions.
    - [no-catchall-exn] (error): a bare [with _ ->] swallows
      [Out_of_memory], [Stack_overflow] and contract violations alike.
    - [no-print-in-lib] (error): library code must report through
      [Obs] sinks, not write to the process's std channels.
    - [no-physical-float-eq] (warning): [=]/[==] on float-typed
      operands (syntactic heuristic); compare against an explicit
      tolerance or use [Float.equal] deliberately.

    A [lib/] module without an interface is a compile error already
    (warning 70, made an error in [lib/dune]).

    Suppress a deliberate exception at the site with
    [(* sa-lint: allow <rule> *)]. *)

val builtin : unit -> Lint_rule.t list
(** The rules above, in catalog order. *)

val register_builtin : unit -> unit
(** Put the catalog into the {!Lint_rule} registry (idempotent). *)
