(* The strategy of Figure 1 (§3): a Metropolis-style walk.  Downhill
   perturbations are always taken; a non-improving perturbation is
   taken with probability g_temp(h(i), h(j)).  The temperature index
   advances when its share of the budget is spent (§4.2.1 gives each of
   the k temperatures ⌈total/k⌉ of the time) or when [counter_limit]
   consecutive rejections signal equilibrium.

   For classes with [defer_uphill] set (g = 1), the paper's special
   rule replaces the probabilistic test: a strictly-uphill perturbation
   is taken only when [defer_threshold] (18) consecutive
   energy-increasing proposals have accumulated, after which the run
   counter resets to 1 (§3).  Lateral (zero-delta) proposals are
   accepted outright, as they are under any g >= 1. *)

(* Everything a resumed run needs besides the two states and the RNG:
   loop counters, temperature position, and the bit-exact costs.  The
   record lives outside [Make] because it mentions no problem types —
   snapshots from different [Make] applications are interchangeable,
   and the resilience layer serializes it without functor gymnastics. *)
type snapshot = {
  ticks : int;  (** budget ticks consumed *)
  temp : int;  (** current temperature index (1-based) *)
  counter : int;  (** consecutive rejections at this temperature *)
  accepted_at_temp : int;
  defer_run : int;  (** deferred-uphill run length *)
  initial_cost : float;  (** cost of the very first state of the run *)
  current_cost : float;
  best_cost : float;
  improving : int;
  lateral_accepted : int;
  uphill_accepted : int;
  rejected : int;
  rng : string;  (** [Rng.to_state] of the generator at this point *)
}

(* Below tick [temp * n / k - 1] of an [Evaluations n] budget,
   [ticks / n] falls short of [temp / k] by at least [2 / n].  For
   [n <= 2^52] the ints convert exactly and each quotient rounds by at
   most [2^-53] relative, far less than that gap, so the exact test in
   [run] cannot pass there.  A [Seconds] budget, a larger [n] or a
   product that would overflow gets no guard. *)
let temp_guard budget ~k ~temp =
  match (budget : Budget.t) with
  | Evaluations n when n <= 1 lsl 52 && n <= max_int / k -> (temp * n / k) - 1
  | Evaluations _ | Seconds _ -> min_int

module Make (P : Mc_problem.S) = struct
  module S = Step.Make (P)

  type params = {
    gfun : Gfun.t;
    schedule : Schedule.t;
    budget : Budget.t;
    counter_limit : int;
    acceptance_limit : int;
    defer_threshold : int;
  }

  exception Aborted = S.Aborted

  let params ?(counter_limit = max_int) ?(acceptance_limit = max_int)
      ?(defer_threshold = 18) ~gfun ~schedule ~budget () =
    if counter_limit <= 0 then invalid_arg "Figure1.params: counter_limit <= 0";
    if acceptance_limit <= 0 then invalid_arg "Figure1.params: acceptance_limit <= 0";
    if defer_threshold <= 0 then invalid_arg "Figure1.params: defer_threshold <= 0";
    if Schedule.length schedule <> Gfun.k gfun then
      invalid_arg
        (Printf.sprintf "Figure1.params: schedule length %d but %s expects k = %d"
           (Schedule.length schedule) (Gfun.name gfun) (Gfun.k gfun));
    { gfun; schedule; budget; counter_limit; acceptance_limit; defer_threshold }

  let run ?(observer = Obs.Observer.null) ?checkpoint_every ?on_checkpoint
      ?resume ?delta_ops rng p state =
    let k = Gfun.k p.gfun in
    (match checkpoint_every with
    | Some n when n <= 0 -> invalid_arg "Figure1.run: checkpoint_every <= 0"
    | Some _ | None -> ());
    (match resume with
    | Some (s, _) ->
        if s.ticks < 0 then invalid_arg "Figure1.run: resume with negative ticks";
        if s.temp < 1 || s.temp > k then
          invalid_arg "Figure1.run: resume temperature out of schedule range"
    | None -> ());
    let clock =
      match resume with
      | Some (s, _) -> Budget.start_at ~ticks:s.ticks p.budget
      | None -> Budget.start p.budget
    in
    let b =
      S.start ~observer clock state
        ?resume:
          (Option.map (fun (s, best) -> (s.current_cost, s.best_cost, best)) resume)
    in
    let s0 =
      match resume with
      | Some (s, _) -> s
      | None ->
          {
            ticks = 0;
            temp = 1;
            counter = 0;
            accepted_at_temp = 0;
            defer_run = 0;
            initial_cost = b.hi;
            current_cost = b.hi;
            best_cost = b.hi;
            improving = 0;
            lateral_accepted = 0;
            uphill_accepted = 0;
            rejected = 0;
            rng = "";
          }
    in
    b.improving <- s0.improving;
    b.lateral <- s0.lateral_accepted;
    b.uphill <- s0.uphill_accepted;
    b.rejected <- s0.rejected;
    b.temperatures <- s0.temp;
    let counter = ref s0.counter in
    let accepted_at_temp = ref s0.accepted_at_temp in
    let defer_run = ref s0.defer_run in
    let temp = ref s0.temp in
    let stop = ref false in
    let last_ckpt = ref s0.ticks in
    let fire_checkpoint () =
      match on_checkpoint with
      | None -> ()
      | Some f ->
          last_ckpt := Budget.ticks clock;
          let best, best_cost = S.best b in
          f
            {
              ticks = Budget.ticks clock;
              temp = !temp;
              counter = !counter;
              accepted_at_temp = !accepted_at_temp;
              defer_run = !defer_run;
              initial_cost = s0.initial_cost;
              current_cost = b.hi;
              best_cost;
              improving = b.improving;
              lateral_accepted = b.lateral;
              uphill_accepted = b.uphill;
              rejected = b.rejected;
              rng = Rng.to_state rng;
            }
            ~current:state ~best
    in
    (* Loop-top is the one point where no move is half-applied and the
       counters are mutually consistent; the [last_ckpt] guard keeps a
       tick that revisits the loop top (early temperature advance) or a
       just-resumed run from double-firing. *)
    let maybe_checkpoint () =
      match checkpoint_every with
      | Some every ->
          let t = Budget.ticks clock in
          if t > 0 && t mod every = 0 && t <> !last_ckpt then fire_checkpoint ()
      | None -> ()
    in
    (* Temperature epochs are proper [Obs.Span]s now (one "run" root,
       one "temp:<i>" child per epoch), so the per-domain span stack —
       what the sampling profiler reads — names the phase every
       evaluation belongs to.  The emitted Span events keep their old
       names and order; only the [t0] of each epoch moves from the
       previous epoch's close to its own open (the same instant, one
       [Obs.now] call apart). *)
    S.enter_temp b p.schedule !temp;
    let epoch = ref (Obs.Span.enter observer (Printf.sprintf "temp:%d" !temp)) in
    let close_epoch () = Obs.Span.exit observer !epoch in
    let guard = ref (temp_guard p.budget ~k ~temp:!temp) in
    let advance_temp () =
      close_epoch ();
      incr temp;
      guard := temp_guard p.budget ~k ~temp:!temp;
      b.temperatures <- !temp;
      counter := 0;
      accepted_at_temp := 0;
      S.enter_temp b p.schedule !temp;
      epoch := Obs.Span.enter observer (Printf.sprintf "temp:%d" !temp)
    in
    (* Accept/reject decision (true = take the move).  Mutates
       [defer_run] and may consume one RNG draw; both evaluators propose
       from the same stream, so an adapter whose delta path replays the
       recompute path's draws visits the same decisions on either. *)
    let decide hj =
      if hj < b.hi then begin
        defer_run := 0;
        true
      end
      else if Gfun.defer_uphill p.gfun then
        if hj = b.hi then true
        else begin
          incr defer_run;
          if !defer_run >= p.defer_threshold then begin
            defer_run := 1;
            true
          end
          else false
        end
      else begin
        let y = Schedule.get p.schedule !temp in
        let g = Gfun.eval p.gfun ~temp:!temp ~y ~hi:b.hi ~hj in
        Rng.unit_float rng < g
      end
    in
    let ev = match delta_ops with None -> S.recompute b | Some d -> S.of_delta b d in
    (* On the delta path the accumulated [hi] is replaced by a full
       recost on a deterministic tick cadence, so compensated float
       drift is bounded; a step advances one tick at most and the loop
       top sees every tick, so resyncs fall on the multiples of the
       cadence and a resumed run resyncs where its uninterrupted twin
       does.  The recompute evaluator's cadence never comes due. *)
    while (not !stop) && not (Budget.exhausted clock) do
      S.maybe_resync b ev;
      maybe_checkpoint ();
      (* Catch the temperature up with the spent budget fraction; the
         exact float test runs only from the guard tick on. *)
      while
        !temp < k
        && Budget.ticks clock >= !guard
        && Budget.used_fraction clock >= float_of_int !temp /. float_of_int k
      do
        advance_temp ()
      done;
      if !counter >= p.counter_limit || !accepted_at_temp >= p.acceptance_limit then
        if !temp >= k then stop := true
        else advance_temp ()
      else begin
        let m = ev.propose rng in
        let hj = ev.price m in
        if decide hj then begin
          S.accept b ev m hj;
          counter := 0;
          incr accepted_at_temp;
          S.note_best b
        end
        else begin
          S.reject b ev m hj;
          incr counter
        end
      end
    done;
    (* A final fire guarantees the checkpoint file exists (and is
       marked complete) even for runs shorter than the interval. *)
    if Budget.ticks clock <> !last_ckpt then fire_checkpoint ();
    close_epoch ();
    S.finish b
end
