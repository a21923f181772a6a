(* One dispatch per run, to an engine that walks the whole budget.
   Figure 1 keeps its functor for the ledger's timed walks; its
   generative [Aborted] is caught here. *)

type 's strategy =
  | Figure1 of {
      counter_limit : int option;
      acceptance_limit : int option;
      defer_threshold : int option;
      checkpoint_every : int option;
      on_checkpoint : (Figure1.snapshot -> current:'s -> best:'s -> unit) option;
      resume : (Figure1.snapshot * 's) option;
    }
  | Figure2
  | Rejectionless

let figure1 ?counter_limit ?acceptance_limit ?defer_threshold ?checkpoint_every
    ?on_checkpoint ?resume () =
  Figure1
    { counter_limit; acceptance_limit; defer_threshold; checkpoint_every; on_checkpoint; resume }

let run (type s m) ((module P : Mc_problem.S with type state = s and type move = m) as problem)
    ?delta_ops ?observer strategy ~gfun ~schedule ~budget rng start =
  match strategy with
  | Figure1 f -> (
      let module E = Figure1.Make (P) in
      let params =
        E.params ?counter_limit:f.counter_limit ?acceptance_limit:f.acceptance_limit
          ?defer_threshold:f.defer_threshold ~gfun ~schedule ~budget ()
      in
      match
        E.run ?observer ?checkpoint_every:f.checkpoint_every ?on_checkpoint:f.on_checkpoint
          ?resume:f.resume ?delta_ops rng params start
      with
      | run -> Ok run
      | exception E.Aborted { reason; partial } -> Error { Mc_problem.reason; partial })
  | Figure2 -> Figure2.run problem ?observer ?delta_ops ~gfun ~schedule ~budget rng start
  | Rejectionless ->
      Rejectionless.run problem ?observer ?delta_ops ~gfun ~schedule ~budget rng start

let or_raise = function Ok run -> run | Error { Mc_problem.reason; _ } -> raise reason
