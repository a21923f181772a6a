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

let run (type s m) (module P : Mc_problem.S with type state = s and type move = m)
    ?(observer = Obs.Observer.null) ?delta_ops ~gfun ~schedule ~budget rng state =
  Gfun.check_schedule ~caller:"Rejectionless.run" gfun schedule;
  let module S = Step.Make (P) in
  let k = Gfun.k gfun in
  let clock = Budget.start budget in
  let b = S.start ~observer clock state in
  S.enter_temp b schedule 1;
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
  let share_end = ref (Budget.share_end budget ~k 1) in
  let advance_temp () =
    incr temp;
    share_end := Budget.share_end budget ~k !temp;
    b.temperatures <- !temp;
    S.enter_temp b schedule !temp
  in
  match
    while (not !stop) && not (Budget.exhausted clock) do
      S.maybe_resync b ev;
      while !temp < k && Budget.ticks clock >= !share_end do
        advance_temp ()
      done;
      let y = Schedule.get schedule !temp in
      let weight hj =
        if hj < b.costs.hi then 1.
        else
          Float.max 0.
            (Float.min 1. (Gfun.eval gfun ~temp:!temp ~y ~hi:b.costs.hi ~hj))
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
                 ev.price m;
                 let hj = b.costs.hj in
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
        b.costs.hj <- hj;
        S.accept b ev m;
        if b.observing then
          S.emit b (Obs.Event.Descent_done { cost = hj; evaluations = Budget.ticks clock });
        b.rejected <- b.rejected - 1;
        b.descents <- b.descents + 1;
        S.note_best b
      end
    done
  with
  | () -> Ok (S.finish b)
  | exception S.Aborted { reason; partial } -> Error { Mc_problem.reason; partial }
