(* The strategy of Figure 2 (§3), after [COHO83a/b]: drive the solution
   to a local optimum of the systematic neighborhood first; only then
   consider a single random uphill perturbation with probability
   g_temp, and on acceptance descend again.  The counter of Step 4/5
   counts uphill attempts at the current temperature; after
   [counter_limit] of them the next temperature begins, and the run
   ends after the last one (or earlier if the budget runs out).

   When [restart_schedule] is set (the default) a completed schedule
   starts over while budget remains, so that timed comparisons against
   Figure 1 use the whole allowance — the paper gives each method the
   same 3 minutes (§4.2.4). *)

module Make (P : Mc_problem.S) = struct
  module S = Step.Make (P)

  type params = {
    gfun : Gfun.t;
    schedule : Schedule.t;
    budget : Budget.t;
    counter_limit : int;
    restart_schedule : bool;
  }

  exception Aborted = S.Aborted

  let params ?(counter_limit = 100) ?(restart_schedule = true) ~gfun ~schedule ~budget () =
    if counter_limit <= 0 then invalid_arg "Figure2.params: counter_limit <= 0";
    if Schedule.length schedule <> Gfun.k gfun then
      invalid_arg
        (Printf.sprintf "Figure2.params: schedule length %d but %s expects k = %d"
           (Schedule.length schedule) (Gfun.name gfun) (Gfun.k gfun));
    { gfun; schedule; budget; counter_limit; restart_schedule }

  let run ?(observer = Obs.Observer.null) ?delta_ops rng p state =
    let k = Gfun.k p.gfun in
    let clock = Budget.start p.budget in
    let b = S.start ~observer clock state in
    S.enter_temp b p.schedule 1;
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
                let hj = ev.price m in
                if hj < b.hi then begin
                  S.accept b ev m hj;
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
          (Obs.Event.Descent_done { cost = b.hi; evaluations = Budget.ticks clock });
      S.note_best b
    in
    let stop = ref false in
    let temp = ref 1 in
    let counter = ref 0 in
    descend ();
    while (not !stop) && not (Budget.exhausted clock) do
      if !counter >= p.counter_limit then
        if !temp >= k then
          if p.restart_schedule then begin
            temp := 1;
            counter := 0;
            S.enter_temp b p.schedule 1
          end
          else stop := true
        else begin
          incr temp;
          counter := 0;
          if !temp > b.temperatures then b.temperatures <- !temp;
          S.enter_temp b p.schedule !temp
        end
      else begin
        incr counter;
        S.maybe_resync b ev;
        let m = ev.propose rng in
        let hj = ev.price m in
        let y = Schedule.get p.schedule !temp in
        let g = Gfun.eval p.gfun ~temp:!temp ~y ~hi:b.hi ~hj in
        if Rng.unit_float rng < g then begin
          S.accept b ev m hj;
          S.note_best b;
          descend ()
        end
        else S.reject b ev m hj
      end
    done;
    S.finish b
end
