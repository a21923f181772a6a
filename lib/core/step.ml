(* The engines' shared step machinery.  The books hold everything the
   three strategies track alike; the evaluator prices a move either by
   full recompute or by delta, so each engine runs one step loop
   whatever the path. *)

module Make (P : Mc_problem.S) = struct
  exception Aborted of { reason : exn; partial : P.state Mc_problem.run }

  type t = {
    state : P.state;
    clock : Budget.clock;
    observer : Obs.Observer.t;
    observing : bool;
    span_depth : int;
    run_span : Obs.Span.t;
    t0 : float;
    mutable hi : float;
    mutable best : P.state;
    mutable snap_cost : float;
    mutable best_cost : float;
    mutable live : bool;
    mutable improving : int;
    mutable lateral : int;
    mutable uphill : int;
    mutable rejected : int;
    mutable temperatures : int;
    mutable descents : int;
    mutable last_resync : int;
  }

  let emit b ev = Obs.Observer.emit b.observer ev

  let start ?resume ~observer clock state =
    (* The span-stack floor is read before the run opens any span: an
       abnormal exit unwinds (without emitting) to here, so an aborted
       run cannot leak frames into the next run on this domain. *)
    let span_depth = Obs.Span.depth () in
    let hi, best_cost, best =
      match resume with
      | Some (hi, best_cost, best) -> (hi, best_cost, P.copy best)
      | None ->
          let c = P.cost state in
          if not (Float.is_finite c) then
            raise
              (Mc_problem.Invalid_cost
                 (Printf.sprintf "non-finite initial cost %h" c));
          (c, c, P.copy state)
    in
    let observing = Obs.Observer.enabled observer in
    let t0 = if observing then Obs.now () else 0. in
    if observing then Obs.Observer.emit observer (Obs.Event.Run_start { cost = hi });
    let run_span = Obs.Span.enter observer "run" in
    {
      state;
      clock;
      observer;
      observing;
      span_depth;
      run_span;
      t0;
      hi;
      best;
      snap_cost = best_cost;
      best_cost;
      live = false;
      improving = 0;
      lateral = 0;
      uphill = 0;
      rejected = 0;
      temperatures = 1;
      descents = 0;
      last_resync = 0;
    }

  (* A best the walk still sits on is copied only when something reads
     it or the walk is about to leave it. *)
  let snapshot b =
    if b.live then begin
      b.best <- P.copy b.state;
      b.snap_cost <- b.best_cost;
      b.live <- false
    end

  let best b =
    snapshot b;
    (b.best, b.snap_cost)

  let result b =
    let best, best_cost = best b in
    {
      Mc_problem.best;
      best_cost;
      final_cost = b.hi;
      stats =
        {
          Mc_problem.evaluations = Budget.ticks b.clock;
          improving = b.improving;
          lateral_accepted = b.lateral;
          uphill_accepted = b.uphill;
          rejected = b.rejected;
          temperatures_visited = b.temperatures;
          descents = b.descents;
        };
    }

  (* Abnormal exits carry the best-so-far out: a crashing cost function
     must not discard hours of progress. *)
  let abort b reason =
    Obs.Span.unwind_to b.span_depth;
    raise (Aborted { reason; partial = result b })

  let finish b =
    Obs.Span.exit b.observer b.run_span;
    if b.observing then
      emit b
        (Obs.Event.Run_end
           {
             evaluations = Budget.ticks b.clock;
             final_cost = b.hi;
             best_cost = b.best_cost;
             seconds = Obs.now () -. b.t0;
           });
    result b

  let enter_temp b schedule t =
    if b.observing then
      emit b (Obs.Event.Temp_advance { temp = t; y = Schedule.get schedule t })

  let note_best b =
    if b.hi < b.best_cost then begin
      b.best_cost <- b.hi;
      b.live <- true;
      if b.observing then
        emit b (Obs.Event.New_best { evaluation = Budget.ticks b.clock; cost = b.hi })
    end

  let resync b =
    let c = match P.cost b.state with c -> c | exception e -> abort b e in
    if not (Float.is_finite c) then
      abort b
        (Mc_problem.Invalid_cost
           (Printf.sprintf "non-finite cost %h at resync (evaluation %d)" c
              (Budget.ticks b.clock)));
    b.hi <- c;
    note_best b

  type evaluator = {
    propose : Rng.t -> P.move;
    price : P.move -> float;
    keep : P.move -> unit;
    drop : P.move -> unit;
    recost_every : int;
  }

  let maybe_resync b ev =
    let t = Budget.ticks b.clock in
    if t - b.last_resync >= ev.recost_every then begin
      b.last_resync <- t;
      resync b
    end

  let accept b ev m hj =
    (* Only a move that does not beat a live best needs the copy: one
       that beats it leads to a better best, which the engine's next
       [note_best] records.  Such a move is kept with the best no
       longer live, so a [keep] that raises halfway aborts with the
       previous snapshot. *)
    if b.live then begin
      if hj < b.best_cost then b.live <- false else snapshot b
    end;
    ev.keep m;
    (* Classify by comparison and only materialise the delta when an
       observer is attached: a [let delta = hj -. b.hi] used in the
       event record would be boxed on every acceptance, observer or
       not. *)
    let kind =
      if hj < b.hi then begin
        b.improving <- b.improving + 1;
        Obs.Event.Improving
      end
      else if hj = b.hi then begin
        b.lateral <- b.lateral + 1;
        Obs.Event.Lateral
      end
      else begin
        b.uphill <- b.uphill + 1;
        Obs.Event.Uphill
      end
    in
    if b.observing then emit b (Obs.Event.Accepted { kind; cost = hj; delta = hj -. b.hi });
    b.hi <- hj

  let reject b ev m hj =
    if b.observing then emit b (Obs.Event.Rejected { delta = hj -. b.hi });
    ev.drop m;
    b.rejected <- b.rejected + 1

  (* Callers test [b.observing] first, so an unobserved step never
     boxes [hj] for the call. *)
  let proposed b kind hj =
    emit b (Obs.Event.Proposed { evaluation = Budget.ticks b.clock; cost = hj; kind })

  let recompute ?(restore = false) b =
    let state = b.state in
    let revert m = try P.revert state m with e -> abort b e in
    (* [apply] leaves the state, so a live best is copied first. *)
    let apply m =
      snapshot b;
      try P.apply state m with e -> abort b e
    in
    (* Leaves [m] applied; on failure the state is restored first. *)
    let cost_applied m =
      Budget.tick b.clock;
      apply m;
      let hj = match P.cost state with c -> c | exception e -> revert m; abort b e in
      if not (Float.is_finite hj) then begin
        revert m;
        abort b
          (Mc_problem.Invalid_cost
             (Printf.sprintf "non-finite cost %h at evaluation %d" hj
                (Budget.ticks b.clock)))
      end;
      hj
    in
    let propose rng = try P.random_move rng state with e -> abort b e in
    if restore then
      (* The state holds one applied move at most, so an engine that
         keeps several priced moves pending prices each by apply, cost
         and revert, and applies the one it keeps afresh. *)
      let price m =
        let hj = cost_applied m in
        revert m;
        if b.observing then proposed b None hj;
        hj
      in
      { propose; price; keep = apply; drop = ignore; recost_every = max_int }
    else
      let price m =
        let hj = cost_applied m in
        if b.observing then proposed b None hj;
        hj
      in
      { propose; price; keep = ignore; drop = revert; recost_every = max_int }

  let of_delta b (d : _ Mc_problem.delta_ops) =
    let state = b.state in
    (* A resumed run's cadence counts from the last multiple of
       [recost_every] it had passed, so it resyncs at the ticks its
       uninterrupted twin does. *)
    let t = Budget.ticks b.clock in
    b.last_resync <- t - (t mod d.recost_every);
    let price m =
      Budget.tick b.clock;
      let dv = try d.delta state m with e -> abort b e in
      if not (Float.is_finite dv) then
        abort b
          (Mc_problem.Invalid_cost
             (Printf.sprintf "non-finite delta %h at evaluation %d" dv
                (Budget.ticks b.clock)));
      let hj = b.hi +. dv in
      if b.observing then proposed b d.kind hj;
      hj
    in
    {
      propose = (fun rng -> try d.propose rng state with e -> abort b e);
      price;
      keep = (fun m -> try d.commit state m with e -> abort b e);
      drop = (fun m -> try d.abandon state m with e -> abort b e);
      recost_every = d.recost_every;
    }
end
