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

  (* Per-run storage for the [?sweep_cache] path: the previous sweep's
     move and delta at each neighborhood index, plus a validity byte
     cleared when a committed step affects the entry. *)
  type cache = {
    mutable cm : P.move array;
    mutable cdv : float array;
    mutable cvalid : Bytes.t;
    mutable filled : int; (* entries 0..filled-1 belong to the last sweep *)
    mutable count : int; (* entries priced so far in this sweep *)
  }

  let cache_ensure mc n m =
    if Array.length mc.cm < n then begin
      let cap = max 256 (max n (2 * Array.length mc.cm)) in
      let cm = Array.make cap m in
      Array.blit mc.cm 0 cm 0 (Array.length mc.cm);
      let cdv = Array.make cap 0. in
      Array.blit mc.cdv 0 cdv 0 (Array.length mc.cdv);
      let cvalid = Bytes.make cap '\000' in
      Bytes.blit mc.cvalid 0 cvalid 0 (Bytes.length mc.cvalid);
      mc.cm <- cm;
      mc.cdv <- cdv;
      mc.cvalid <- cvalid
    end

  (* [d] with its deltas memoized across sweeps by the index [pos] of
     the move within its sweep, and a [commit] that drops every cached
     delta the committed step could have changed; the rest carry over
     to the next sweep.  Raw deltas are reused bit-for-bit and the
     budget still ticks per move scanned, so the sweep's decisions (and
     its stats) are identical with or without the cache. *)
  let cached pos hints (d : _ Mc_problem.delta_ops) =
    let mc = { cm = [||]; cdv = [||]; cvalid = Bytes.empty; filled = 0; count = 0 } in
    let delta state m =
      let i = !pos in
      if i = 0 then mc.filled <- mc.count;
      mc.count <- i + 1;
      if
        i < mc.filled
        && Bytes.get mc.cvalid i = '\001'
        && hints.Mc_problem.equal_move mc.cm.(i) m
      then mc.cdv.(i)
      else begin
        let dv = d.delta state m in
        cache_ensure mc (i + 1) m;
        mc.cm.(i) <- m;
        mc.cdv.(i) <- dv;
        Bytes.set mc.cvalid i '\001';
        dv
      end
    in
    let commit state m =
      d.commit state m;
      for i = 0 to mc.count - 1 do
        if
          Bytes.get mc.cvalid i = '\001'
          && hints.Mc_problem.affects state ~committed:m mc.cm.(i)
        then Bytes.set mc.cvalid i '\000'
      done
    in
    { d with delta; commit }

  let run ?(observer = Obs.Observer.null) ?delta_ops ?sweep_cache rng p state =
    let k = Gfun.k p.gfun in
    let clock = Budget.start p.budget in
    let b = S.start ~observer clock state in
    S.enter_temp b p.schedule 1;
    (* Index of the move being priced within the current sweep; the sweep
       cache keys on it. *)
    let pos = ref (-1) in
    (* The sweep keeps every weighted move pending until one is sampled:
       the delta evaluator leaves the state untouched while pricing; the
       recompute one restores it after each price. *)
    let ev =
      match delta_ops with
      | None -> S.recompute ~restore:true b
      | Some d ->
          S.of_delta b
            (match sweep_cache with None -> d | Some hints -> cached pos hints d)
    in
    (* Delta path only: replace the accumulated [hi] with a full recost
       once [recost_every] ticks have passed since the last one,
       bounding compensated float drift.  Called only at the outer loop
       top (no move half-applied). *)
    let last_resync = ref 0 in
    let maybe_resync () =
      if Budget.ticks clock - !last_resync >= ev.recost_every then begin
        last_resync := Budget.ticks clock;
        S.resync b
      end
    in
    let stop = ref false in
    let temp = ref 1 in
    let advance_temp () =
      incr temp;
      b.temperatures <- !temp;
      S.enter_temp b p.schedule !temp
    in
    while (not !stop) && not (Budget.exhausted clock) do
      maybe_resync ();
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
      pos := -1;
      let weighted =
        (try P.moves state with e -> S.abort b e)
        |> Seq.filter_map (fun m ->
               if Budget.exhausted clock then None
               else begin
                 incr pos;
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
