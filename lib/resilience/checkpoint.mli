(** Versioned, CRC-guarded resume snapshots.

    A checkpoint file is one JSON object
    [{"schema":"sa-lab/checkpoint/v1","crc":"…","payload":…}]: the
    CRC-32 (IEEE) of the payload's compact rendering detects
    truncation and corruption before anything is decoded, and writes
    are atomic (temp file + rename), so the file at [path] is always
    either absent, the previous snapshot, or the new one — never a
    prefix.

    Costs inside the payload are stored as IEEE-754 bit patterns
    (["0x%016Lx"]) because decimal JSON float text does not round-trip
    and resume must be bit-exact. *)

val schema : string
(** ["sa-lab/checkpoint/v1"]. *)

val write : path:string -> Obs.Json.t -> unit
(** [write ~path payload] atomically replaces [path] with a
    checkpoint document wrapping [payload].
    @raise Sys_error on IO failure. *)

val read : path:string -> (Obs.Json.t, string) result
(** Parse and verify a checkpoint file, returning its payload.  The
    error message pins down what is wrong: unreadable file, invalid
    JSON, wrong schema tag, missing fields, or a CRC mismatch
    (corruption). *)

val sweep_stale : dir:string -> keep:int -> string list
(** Janitor for a state directory of cadence snapshots named
    ["<job>-<seq>.ckpt"] (decimal [seq]): per job stem, delete all but
    the [keep] newest snapshots — newest by sequence number, not
    mtime — and return the deleted paths, sorted.  Files that do not
    match the naming convention (manifests, temp files, anything
    foreign) are never touched, a missing directory is an empty one,
    and each deletion is a single [Sys.remove], so a crash mid-sweep
    only leaves fewer stale files.
    @raise Invalid_argument if [keep < 1]. *)

val hex_of_float : float -> string
(** ["0x%016Lx"] bit pattern of a float; round-trips exactly. *)

val float_of_hex : string -> (float, string) result
(** Inverse of {!hex_of_float}; rejects anything that is not [0x]
    plus 16 lowercase hex digits. *)

val snapshot_to_json : Figure1.snapshot -> Obs.Json.t
val snapshot_of_json : Obs.Json.t -> (Figure1.snapshot, string) result

val save_figure1 :
  ?observer:Obs.Observer.t ->
  path:string ->
  codec:'state Mc_problem.codec ->
  fingerprint:Obs.Json.t ->
  Figure1.snapshot ->
  current:'state ->
  best:'state ->
  unit
(** Persist a Figure 1 resume point: the loop snapshot plus the
    codec-encoded current and best states, tagged with [fingerprint]
    (an arbitrary JSON value identifying the run configuration —
    netlist, method, seed, budget).  Emits
    [Checkpoint_written {path; evaluation}] through [observer]. *)

type load_error =
  | Stale of string
      (** CRC-clean but written under a different run configuration:
          the stored fingerprint does not match this invocation's. *)
  | Corrupt of string
      (** Anything that means the file cannot be trusted: unreadable,
          invalid JSON, CRC mismatch, wrong engine, undecodable
          state. *)

val load_error_message : load_error -> string
(** The human-readable message either constructor carries. *)

val load_figure1 :
  path:string ->
  codec:'state Mc_problem.codec ->
  fingerprint:Obs.Json.t ->
  (Figure1.snapshot * 'state * 'state * Rng.t, load_error) result
(** Load a resume point written by {!save_figure1}: returns the
    snapshot, the decoded current and best states, and the RNG rebuilt
    from the saved stream position.  Failures are classified — {!Stale}
    for a clean checkpoint from another run configuration, {!Corrupt}
    for everything else — so callers count them structurally instead of
    parsing message text. *)

val resume_figure1 :
  path:string ->
  codec:'state Mc_problem.codec ->
  cost:('state -> float) ->
  fingerprint:Obs.Json.t ->
  (Figure1.snapshot * 'state * 'state * Rng.t, load_error) result
(** {!load_figure1}, then check that the decoded current and best
    states re-price under [cost] to the snapshot's [current_cost] and
    [best_cost] bit for bit; a state that does not is {!Corrupt}.
    Every resume goes through here.  Pass the problem's own [cost],
    not a fault-injecting wrapper's. *)
