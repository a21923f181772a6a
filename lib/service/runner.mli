(** Execute one job to a durable conclusion.

    Anneal jobs walk under [Figure1] with a checkpoint cadence through
    {!Checkpoint.save_figure1}; on entry the runner resumes from the
    newest snapshot that loads cleanly (skipping and counting stale
    and corrupt ones), and a resumed run's final report is
    byte-identical to its uninterrupted twin.  Attempts are wrapped in
    {!Supervisor.run}: an aborting problem (chaos faults, non-finite
    costs) is retried with backoff — each retry resuming from the
    latest checkpoint — and quarantined if the fault persists.  Race
    jobs run a {!Portfolio.race} tournament; they have no mid-flight
    resume but are deterministic in the seed, so a drained or crashed
    race reruns to the identical report. *)

exception Stop_requested
(** Raised out of the checkpoint callback when [stop] reads true —
    after the snapshot is on disk, which is what makes the stop
    safe. *)

type status =
  | Done of Obs.Json.t  (** final report (see [sa-lab/job-result/v1]) *)
  | Halted  (** [stop] fired; a fresh checkpoint is on disk (anneal) *)
  | Failed of string  (** quarantined or unrunnable; the reason *)

type report = {
  status : status;
  attempts : int;  (** supervisor attempts consumed (1 = no retry) *)
  resumed : bool;  (** some attempt started from a snapshot *)
  stale : int;  (** snapshots skipped: fingerprint mismatch *)
  corrupt : int;
      (** snapshots skipped: CRC/JSON/decode failure, or states that do
          not re-price to the snapshot's costs *)
}

val schedule_for : Gfun.t -> float -> Schedule.t
(** {!Gfun.schedule}, under the name the ledger workloads call. *)

val result_to_json :
  spec:Job_spec.t -> 'a Mc_problem.run -> Obs.Json.t -> Obs.Json.t
(** Pure rendering of a finished walk (costs as exact bit patterns
    plus a readable float, stats, and the encoded best state). *)

val run :
  ?observer:Obs.Observer.t ->
  ?sleep:(float -> unit) ->
  dir:string ->
  id:int ->
  checkpoint_every:int ->
  max_attempts:int ->
  base_delay:float ->
  stop:(unit -> bool) ->
  Job_spec.t ->
  report
(** Run the job whose snapshots live under [dir] as
    [job-<id>-<seq>.ckpt].  [stop] is polled at every cadence
    checkpoint (and between racing rungs); when it reads true the run
    halts with {!Halted} and the walk's resume point already
    persisted.  [sleep] is the supervisor's backoff sleep, injectable
    for tests.  [Out_of_memory] and [Stack_overflow] propagate.
    @raise Invalid_argument if [checkpoint_every < 1]. *)
