(** The one entry point to the engines.  {!run} walks a problem, given
    as a first-class module, under a {!strategy}: the paper's Figure 1
    or Figure 2, or the rejection-free engine of [GREE84].  It picks the
    engine once per call, so it costs nothing per budget tick, and it
    returns a walk the problem broke as [Error], in one shape for all
    three. *)

type 's strategy =
  | Figure1 of {
      counter_limit : int option;
      acceptance_limit : int option;
      defer_threshold : int option;
      checkpoint_every : int option;
      on_checkpoint : (Figure1.snapshot -> current:'s -> best:'s -> unit) option;
      resume : (Figure1.snapshot * 's) option;
    }
      (** The limits of {!Figure1}'s [params] ([None] keeps the
          default) and the checkpoint arguments of its [run]. *)
  | Figure2
  | Rejectionless

val figure1 :
  ?counter_limit:int ->
  ?acceptance_limit:int ->
  ?defer_threshold:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Figure1.snapshot -> current:'s -> best:'s -> unit) ->
  ?resume:Figure1.snapshot * 's ->
  unit ->
  's strategy

val run :
  (module Mc_problem.S with type state = 's and type move = 'm) ->
  ?delta_ops:('s, 'm) Mc_problem.delta_ops ->
  ?observer:Obs.Observer.t ->
  's strategy ->
  gfun:Gfun.t ->
  schedule:Schedule.t ->
  budget:Budget.t ->
  Rng.t ->
  's ->
  ('s Mc_problem.run, 's Mc_problem.aborted) result
(** [run (module P) strategy ~gfun ~schedule ~budget rng start] is the
    strategy's engine run over [P], draw for draw.  It perturbs [start]
    in place until the budget is spent and returns the best snapshot
    found; [delta_ops] selects the incremental evaluator and [observer]
    receives the engine's event stream.  A non-finite cost or a raising
    operation mid-walk restores the state and returns [Error].
    @raise Mc_problem.Invalid_cost if the initial cost is non-finite.
    @raise Invalid_argument on a schedule whose length is not the
    g-function's [k], or a [Figure1] argument its engine refuses. *)

val or_raise : ('s Mc_problem.run, 's Mc_problem.aborted) result -> 's Mc_problem.run
(** The run of [Ok]; raises the [reason] of [Error]. *)
