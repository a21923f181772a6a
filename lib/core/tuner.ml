(* The temperature-determination protocol of §4.2.1: for each
   g-function class that uses Y values, try a ladder of candidate base
   temperatures on a fixed training set (30 random instances in the
   paper), running the Figure 1 strategy with each instance's common
   initial solution, and keep the base giving the largest total cost
   reduction. *)

module Make (P : Mc_problem.S) = struct
  module Engine = Figure1.Make (P)

  type outcome = {
    base : float;
    schedule : Schedule.t;
    total_reduction : float;
    per_candidate : (float * float) list; (* base, total reduction *)
  }

  let score_candidate ~gfun ~schedule ~budget ~instances rng =
    List.fold_left
      (fun acc make_instance ->
        let state = make_instance () in
        let initial = P.cost state in
        let run_rng = Rng.split rng in
        let p = Engine.params ~gfun ~schedule ~budget () in
        let result = Engine.run run_rng p state in
        acc +. (initial -. result.Mc_problem.best_cost))
      0. instances

  let grid_search rng ~gfun ~candidates ~budget ~instances =
    if candidates = [] then invalid_arg "Tuner.grid_search: no candidates";
    if instances = [] then invalid_arg "Tuner.grid_search: no instances";
    let scored =
      List.map
        (fun base ->
          let schedule = Gfun.schedule gfun base in
          (* Each candidate gets its own derived stream so that adding
             or removing candidates does not shift the others' runs. *)
          let candidate_rng = Rng.split rng in
          let total = score_candidate ~gfun ~schedule ~budget ~instances candidate_rng in
          (base, schedule, total))
        candidates
    in
    let best =
      List.fold_left
        (fun acc (base, schedule, total) ->
          match acc with
          | Some (_, _, best_total) when best_total >= total -> acc
          | Some _ | None -> Some (base, schedule, total))
        None scored
    in
    match best with
    | None -> assert false
    | Some (base, schedule, total_reduction) ->
        {
          base;
          schedule;
          total_reduction;
          per_candidate = List.map (fun (b, _, t) -> (b, t)) scored;
        }

  let coarse_candidates =
    [ 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10.; 30.; 100. ]

  let default_candidates =
    [ 1e-6; 3e-6; 1e-5; 3e-5; 1e-4; 3e-4 ] @ coarse_candidates
end
