(* Rejection-free sampling in the spirit of [GREE84] ("simulated
   annealing without rejected moves").  Instead of proposing random
   perturbations and rejecting most of them at low temperature, each
   step evaluates the whole neighborhood, assigns every move its
   acceptance probability as a weight, and samples one move from that
   distribution — so every step changes the configuration.

   Greene and Supowit make the sweep incremental at a large memory
   cost; we pay the full O(|neighborhood|) scan per step and charge it
   honestly to the budget, which is what the ablation table compares
   against Figure 1.  [steps] in the stats counts configuration
   changes, so (steps / evaluations) exposes the method's virtual-time
   acceleration at low temperature. *)

module Make (P : Mc_problem.S) = struct
  module S = Step.Make (P)

  type params = { gfun : Gfun.t; schedule : Schedule.t; budget : Budget.t }

  exception Aborted = S.Aborted

  let params ~gfun ~schedule ~budget =
    if Schedule.length schedule <> Gfun.k gfun then
      invalid_arg "Rejectionless.params: schedule length mismatch";
    { gfun; schedule; budget }

  let run ?(observer = Obs.Observer.null) ?delta_ops rng p state =
    let k = Gfun.k p.gfun in
    let clock = Budget.start p.budget in
    let b = S.start ~observer clock state in
    S.enter_temp b p.schedule 1;
    (* The sweep keeps every weighted move pending until one is sampled:
       the delta evaluator leaves the state untouched while pricing; the
       recompute one restores it after each price. *)
    let ev =
      match delta_ops with
      | None -> S.recompute ~restore:true b
      | Some d -> S.of_delta b d
    in
    let stop = ref false in
    let temp = ref 1 in
    let advance_temp () =
      incr temp;
      b.temperatures <- !temp;
      S.enter_temp b p.schedule !temp
    in
    while (not !stop) && not (Budget.exhausted clock) do
      S.maybe_resync b ev;
      while
        !temp < k
        && Budget.used_fraction clock >= float_of_int !temp /. float_of_int k
      do
        advance_temp ()
      done;
      let y = Schedule.get p.schedule !temp in
      let weight hj =
        if hj < b.hi then 1.
        else
          Float.max 0.
            (Float.min 1. (Gfun.eval p.gfun ~temp:!temp ~y ~hi:b.hi ~hj))
      in
      (* Weigh every move by its acceptance probability.  A scanned move
         counts as rejected until it is taken, so [rejected] is the scan
         overhead (evaluations - steps) at every point of the sweep. *)
      let weighted =
        (try P.moves state with e -> S.abort b e)
        |> Seq.filter_map (fun m ->
               if Budget.exhausted clock then None
               else begin
                 b.rejected <- b.rejected + 1;
                 let hj = ev.price m in
                 let w = weight hj in
                 if w > 0. then Some (m, hj, w)
                 else begin
                   ev.drop m;
                   None
                 end
               end)
        |> Array.of_seq
      in
      if Array.length weighted = 0 then begin
        (* Frozen at this temperature: advance or finish. *)
        if !temp >= k then stop := true else advance_temp ()
      end
      else begin
        let weights = Array.map (fun (_, _, w) -> w) weighted in
        let idx = Rng.categorical rng weights in
        let m, hj, _ = weighted.(idx) in
        Array.iteri (fun i (m', _, _) -> if i <> idx then ev.drop m') weighted;
        S.accept b ev m hj;
        if b.observing then
          S.emit b (Obs.Event.Descent_done { cost = hj; evaluations = Budget.ticks clock });
        b.rejected <- b.rejected - 1;
        b.descents <- b.descents + 1;
        S.note_best b
      end
    done;
    S.finish b
end
