(** Deterministic sampling profiler over the engine span stack.

    Samples are taken every [cadence]-th {!Obs.Event.Proposed} event
    — the budget tick, not the wall clock — recording the emitting
    domain's open-span stack ({!Obs.Span.stack}).  Under a fixed seed
    the profile is identical run over run, and it reconciles against
    {!Obs.Metrics} counters: a run of [n] proposals takes exactly
    [n / cadence] samples, and a temperature epoch with [p] proposals
    owns [p / cadence] of them (±1 for phase).

    Output is folded-stack format (["run;temp:3 42"] lines), directly
    consumable by flamegraph.pl or speedscope. *)

type t

val cadence : int
(** 97 — co-prime with the powers of two that budget schedules and
    racing rungs favour, so sampling never beats against epoch
    boundaries. *)

val create : unit -> t

val samples : t -> int
(** Samples taken so far. *)

val observer : t -> Obs.Observer.t
(** Attach to the run being profiled (tee with other sinks).  Only
    [Proposed] events are inspected.  Single-domain: the span stack
    read is domain-local, so profile the run on the domain emitting
    its events. *)

val stacks : t -> (string * int) list
(** Distinct folded stacks with sample counts, sorted by stack. *)

val folded : t -> string
(** The folded-stack file contents (one ["stack count"] line per
    distinct stack, sorted, trailing newline). *)

val write_folded : t -> string -> unit
(** Write {!folded} to a path. *)
