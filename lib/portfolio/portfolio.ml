type standing = {
  label : string;
  cost : float;
  final_cost : float;
  evaluations : int;
  failure : string option;
}

module Job = struct
  type t = {
    label : string;
    work : Rng.t -> Budget.t -> Obs.Observer.t -> standing;
  }

  let label t = t.label

  let figure1 problem ?delta_ops ~label ~gfun ~schedule ~make_state () =
    (* Validate schedule/g-function agreement now, at portfolio-assembly
       time, rather than on a worker domain mid-race. *)
    Gfun.check_schedule ~caller:"Figure1.params" gfun schedule;
    let standing (r : _ Mc_problem.run) failure =
      {
        label;
        cost = r.best_cost;
        final_cost = r.final_cost;
        evaluations = r.stats.evaluations;
        failure;
      }
    in
    let work rng budget observer =
      match
        Engine.run problem ?delta_ops ~observer (Engine.figure1 ()) ~gfun ~schedule ~budget rng
          (make_state rng)
      with
      | Ok run -> standing run None
      | Error { reason; partial } -> standing partial (Some (Printexc.to_string reason))
      (* A problem that cannot even start (non-finite initial cost, or
         [make_state] itself raising [Invalid_cost]) has no partial to
         preserve; it competes at [infinity] and loses every ranking. *)
      | exception Mc_problem.Invalid_cost msg ->
          {
            label;
            cost = infinity;
            final_cost = infinity;
            evaluations = 0;
            failure = Some msg;
          }
    in
    { label; work }
end

type round = {
  index : int;
  budget_evaluations : int;
  results : standing list;
  culled : string list;
}

type report = {
  mode : string;
  jobs : int;
  rounds : round list;
  winner : standing;
  total_evaluations : int;
  stopped_early : bool;
}

(* One rung: run every surviving job at [budget] on the pool, each from
   a fresh copy of its pinned stream, and rank.  Returns
   (original index, standing) best first; ties break by job-list
   position, and stillborn jobs ([infinity]) sink to the bottom. *)
let run_rung ?job_observer ?pool_stats pool observer (jobs : Job.t array)
    job_rngs alive budget =
  let alive = Array.of_list alive in
  let n = Array.length alive in
  let standings =
    Pool.map ?stats:pool_stats pool
      (fun ~worker i ->
        let j = alive.(i) in
        let observer =
          match job_observer with
          | None -> observer
          | Some f ->
              Obs.Observer.tee
                [ observer; f ~worker ~job:j ~label:jobs.(j).Job.label ]
        in
        jobs.(j).Job.work (Rng.copy job_rngs.(j)) budget observer)
      n
  in
  let ranked = List.init n (fun i -> (alive.(i), standings.(i))) in
  List.sort
    (fun (i1, s1) (i2, s2) ->
      match Float.compare s1.cost s2.cost with
      | 0 -> Int.compare i1 i2
      | c -> c)
    ranked

let rec split_at k = function
  | rest when k = 0 -> ([], rest)
  | [] -> ([], [])
  | x :: rest ->
      let keep, cull = split_at (k - 1) rest in
      (x :: keep, cull)

let prepare ?(domains = 1) ?observer rng jobs ~who =
  if jobs = [] then invalid_arg (who ^ ": no jobs");
  let jobs = Array.of_list jobs in
  let pool = Pool.create ~domains () in
  let observer =
    match observer with
    | None -> Obs.Observer.null
    | Some o -> if domains > 1 then Obs.Observer.serialized o else o
  in
  (* Every job's stream is split off the caller's generator before any
     job runs: the assignment of jobs to domains can then never change
     what any job computes. *)
  let job_rngs = Array.init (Array.length jobs) (fun _ -> Rng.split rng) in
  (jobs, pool, observer, job_rngs)

let round_evaluations results =
  List.fold_left (fun acc (_, s) -> acc + s.evaluations) 0 results

(* Standings are emitted from the caller's domain after the rung has
   been ranked, so their order in any event stream is deterministic. *)
let emit_standings observer ~rung ~culled ranked =
  if Obs.Observer.enabled observer then
    List.iter
      (fun (_, s) ->
        Obs.Observer.emit observer
          (Obs.Event.Rung_standing
             {
               rung;
               label = s.label;
               best_cost = s.cost;
               evaluations = s.evaluations;
               culled = List.mem s.label culled;
             }))
      ranked

let sweep ?domains ?observer ?job_observer ?pool_stats rng ~budget jobs =
  let jobs, pool, observer, job_rngs =
    prepare ?domains ?observer rng jobs ~who:"Portfolio.sweep"
  in
  let ranked =
    run_rung ?job_observer ?pool_stats pool observer jobs job_rngs
      (List.init (Array.length jobs) Fun.id)
      budget
  in
  emit_standings observer ~rung:1 ~culled:[] ranked;
  let results = List.map snd ranked in
  {
    mode = "sweep";
    jobs = Array.length jobs;
    rounds =
      [
        {
          index = 1;
          budget_evaluations = Budget.evaluations budget;
          results;
          culled = [];
        };
      ];
    winner = List.hd results;
    total_evaluations = round_evaluations ranked;
    stopped_early = false;
  }

let race ?domains ?observer ?job_observer ?pool_stats ?deadline
    ?(cancel = fun () -> false) rng ~initial_budget jobs =
  let jobs, pool, observer, job_rngs =
    prepare ?domains ?observer rng jobs ~who:"Portfolio.race"
  in
  let rounds = ref [] in
  let total_evaluations = ref 0 in
  (* The deadline counts every evaluation of every job so far, so where
     a race stops depends on the seeds alone. *)
  let deadline_hit () =
    match deadline with
    | Some d -> !total_evaluations >= Budget.evaluations d
    | None -> false
  in
  let stopped_early = ref false in
  let alive = ref (List.init (Array.length jobs) Fun.id) in
  let winner = ref None in
  let rung = ref 1 in
  let running = ref true in
  while !running do
    let budget =
      Budget.scale (float_of_int (1 lsl (!rung - 1))) initial_budget
    in
    let ranked =
      run_rung ?job_observer ?pool_stats pool observer jobs job_rngs !alive
        budget
    in
    let evals = round_evaluations ranked in
    total_evaluations := !total_evaluations + evals;
    let keep = (List.length ranked + 1) / 2 in
    let survivors, culled = split_at keep ranked in
    emit_standings observer ~rung:!rung
      ~culled:(List.map (fun (_, s) -> s.label) culled)
      ranked;
    rounds :=
      {
        index = !rung;
        budget_evaluations = Budget.evaluations budget;
        results = List.map snd ranked;
        culled = List.map (fun (_, s) -> s.label) culled;
      }
      :: !rounds;
    winner := Some (snd (List.hd ranked));
    alive := List.map fst survivors;
    if List.length survivors <= 1 then running := false
    else if deadline_hit () || cancel () then begin
      stopped_early := true;
      running := false
    end
    else incr rung
  done;
  {
    mode = "race";
    jobs = Array.length jobs;
    rounds = List.rev !rounds;
    winner = Option.get !winner;
    total_evaluations = !total_evaluations;
    stopped_early = !stopped_early;
  }

let standing_to_json (s : standing) : Obs.Json.t =
  Obj
    [
      ("label", String s.label);
      ("best_cost", Float s.cost);
      ("final_cost", Float s.final_cost);
      ("evaluations", Int s.evaluations);
      ("failed", match s.failure with None -> Null | Some m -> String m);
    ]

let round_to_json (r : round) : Obs.Json.t =
  Obj
    [
      ("round", Int r.index);
      ("budget_evaluations", Int r.budget_evaluations);
      ("results", List (List.map standing_to_json r.results));
      ("culled", List (List.map (fun l -> Obs.Json.String l) r.culled));
    ]

let report_to_json (r : report) : Obs.Json.t =
  Obj
    [
      ("schema", String "sa-lab/portfolio-report/v1");
      ("mode", String r.mode);
      ("jobs", Int r.jobs);
      ("stopped_early", Bool r.stopped_early);
      ("total_evaluations", Int r.total_evaluations);
      ("winner", standing_to_json r.winner);
      ("rounds", List (List.map round_to_json r.rounds));
    ]
