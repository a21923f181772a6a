(* The strategy of Figure 2 (§3), after [COHO83a/b]: drive the solution
   to a local optimum of the systematic neighborhood first; only then
   consider a single random uphill perturbation with probability
   g_temp, and on acceptance descend again.  The counter of Step 4/5
   counts uphill attempts at the current temperature; after
   [counter_limit] of them the next temperature begins.

   A completed schedule starts over while budget remains, so that
   timed comparisons against Figure 1 use the whole allowance — the
   paper gives each method the same 3 minutes (§4.2.4). *)

let counter_limit = 100

let run (type s m) (module P : Mc_problem.S with type state = s and type move = m)
    ?(observer = Obs.Observer.null) ?delta_ops ~gfun ~schedule ~budget rng state =
  Gfun.check_schedule ~caller:"Figure2.run" gfun schedule;
  let module S = Step.Make (P) in
  let k = Gfun.k gfun in
  let clock = Budget.start budget in
  let b = S.start ~observer clock state in
  S.enter_temp b schedule 1;
  let ev = match delta_ops with None -> S.recompute b | Some d -> S.of_delta b d in
  (* First-improvement descent: rescan the neighborhood after every
     accepted move until a full pass finds nothing better.  Every
     tested move costs one budget tick.  On the delta path a tested,
     non-improving move is priced by [delta] alone — no apply/revert
     pair. *)
  let descend () =
    let span = Obs.Span.enter observer "descent" in
    let improved_this_pass = ref true in
    while !improved_this_pass && not (Budget.exhausted clock) do
      improved_this_pass := false;
      S.maybe_resync b ev;
      let rec scan seq =
        if not (Budget.exhausted clock) then
          match seq () with
          | Seq.Nil -> ()
          | Seq.Cons (m, rest) ->
              ev.price m;
              if b.costs.hj < b.costs.hi then begin
                S.accept b ev m;
                improved_this_pass := true
                (* restart the pass from the new configuration *)
              end
              else begin
                (* A tested, non-improving descent move is not a
                   rejection in the statistics — no event either. *)
                ev.drop m;
                scan rest
              end
      in
      scan (try P.moves state with e -> S.abort b e)
    done;
    b.descents <- b.descents + 1;
    Obs.Span.exit observer span;
    if b.observing then
      S.emit b
        (Obs.Event.Descent_done { cost = b.costs.hi; evaluations = Budget.ticks clock });
    S.note_best b
  in
  let temp = ref 1 in
  let counter = ref 0 in
  match
    descend ();
    while not (Budget.exhausted clock) do
      if !counter >= counter_limit then
        if !temp >= k then begin
          temp := 1;
          counter := 0;
          S.enter_temp b schedule 1
        end
        else begin
          incr temp;
          counter := 0;
          if !temp > b.temperatures then b.temperatures <- !temp;
          S.enter_temp b schedule !temp
        end
      else begin
        incr counter;
        S.maybe_resync b ev;
        let m = ev.propose rng in
        ev.price m;
        let y = Schedule.get schedule !temp in
        let g = Gfun.eval gfun ~temp:!temp ~y ~hi:b.costs.hi ~hj:b.costs.hj in
        if Rng.unit_float rng < g then begin
          S.accept b ev m;
          S.note_best b;
          descend ()
        end
        else S.reject b ev m
      end
    done
  with
  | () -> Ok (S.finish b)
  | exception S.Aborted { reason; partial } -> Error { Mc_problem.reason; partial }
