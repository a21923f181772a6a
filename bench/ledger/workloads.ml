(* The three in-process workloads.  Each op is a unit a user would
   run: one class's `sa_lab run` walks on both paper instances, one
   Figure 1 trial, one portfolio race.
   An op's outputs are checked as it finishes; ops with the same key
   must agree bit for bit, across repeats and between traced and
   untraced runs. *)

module Swap = Linarr_problem.Swap
module Swap_run = Figure1.Make (Swap)
module Swap_traced = Figure1.Make (Probe.Timed (Swap))
module Tsp_traced = Probe.Timed (Tsp_problem)

type op = { key : int; evals : int; digest : string }

type t = {
  setup : unit -> unit;  (** build inputs; timed as [setup_s] *)
  op : traced:bool -> int -> op;
  cycle : int;  (** ops [k] and [k + cycle] do the same work *)
  finish : unit -> (string * Obs.Json.t) list;
      (** after timing: extra checks, workload-specific detail *)
}

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

let read_netlist path =
  match Netlist.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok nl -> nl
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let digest_run (r : Arrangement.t Mc_problem.run) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%h|%h|%s"
          (String.concat " "
             (Array.to_list (Array.map string_of_int (Arrangement.order r.best))))
          r.best_cost r.final_cost
          (Obs.Json.to_string (Mc_problem.stats_to_json r.stats))))

(* Every reported best cost is re-priced from scratch. *)
let reprice what nl (r : Arrangement.t Mc_problem.run) =
  let d = Arrangement.density_of_order nl (Arrangement.order r.best) in
  Measure.expect what
    (Float.equal (float_of_int d) r.best_cost)
    (Printf.sprintf "reported %g, recomputed %d" r.best_cost d)

let linarr_op ~key runs =
  List.iter (fun (nl, r) -> reprice "best density re-priced" nl r) runs;
  {
    key;
    evals = List.fold_left (fun acc (_, r) -> acc + r.Mc_problem.stats.Mc_problem.evaluations) 0 runs;
    digest = String.concat " " (List.map (fun (_, r) -> digest_run r) runs);
  }

(* ---- paper-cli: `sa_lab run FILE --method C --evals 20000 --seed S`
   for all 21 classes on the paper's two instance shapes.  One op is
   one class on both instances, so ops differ only by class. ---- *)

let paper_files = [ "gola15.net"; "nola15.net" ]

type walk = { file : string; nl : Netlist.t; gfun : Gfun.t }

let paper_walk ~seed ~evals ~traced w =
  let rng = Rng.create ~seed in
  let state = Arrangement.random rng w.nl in
  let schedule = Runner.schedule_for w.gfun 1.0 in
  let budget = Budget.Evaluations evals in
  if traced then
    Swap_traced.run rng
      (Swap_traced.params ~gfun:(Probe.gfun_of w.gfun) ~schedule ~budget ())
      state
  else Swap_run.run rng (Swap_run.params ~gfun:w.gfun ~schedule ~budget ()) state

(* The walk as the real binary prints it. *)
let cli_best_density ~sa_lab ~path ~method_ ~evals ~seed =
  let args =
    [| sa_lab; "run"; path; "--method"; method_; "--evals"; string_of_int evals;
       "--seed"; string_of_int seed |]
  in
  let ic = Unix.open_process_args_in sa_lab args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let best =
    List.find_map
      (fun line -> Scanf.sscanf_opt line "best density: %f" Fun.id)
      (String.split_on_char '\n' out)
  in
  match (status, best) with
  | Unix.WEXITED 0, Some b -> Ok b
  | _ -> Error out

let paper_cli ~data ~sa_lab ~seed ~scale =
  let evals = scaled scale 20_000 in
  let walks = ref [||] in
  let setup () =
    walks :=
      Array.of_list
        (List.concat_map
           (fun file ->
             let nl = read_netlist (Filename.concat data file) in
             List.map (fun gfun -> { file; nl; gfun }) (Gfun.catalog ~m:(Netlist.n_nets nl)))
           paper_files)
  in
  let classes () = Array.length !walks / List.length paper_files in
  let op ~traced k =
    let key = k mod classes () in
    linarr_op ~key
      (List.init (List.length paper_files) (fun i ->
           let w = !walks.((i * classes ()) + key) in
           (w.nl, paper_walk ~seed ~evals ~traced w)))
  in
  let finish () =
    List.iter
      (fun file ->
        let method_ = "Six Temperature Annealing" in
        let w =
          List.find
            (fun w -> w.file = file && Gfun.name w.gfun = method_)
            (Array.to_list !walks)
        in
        let ours = (paper_walk ~seed ~evals ~traced:false w).best_cost in
        match
          cli_best_density ~sa_lab ~path:(Filename.concat data file) ~method_ ~evals
            ~seed
        with
        | Ok theirs ->
            Measure.expect "sa_lab run prints the same best density"
              (Float.equal ours theirs)
              (Printf.sprintf "%s: in process %g, sa_lab %g" file ours theirs)
        | Error out ->
            Measure.expect "sa_lab run prints the same best density" false
              (file ^ ": " ^ out))
      paper_files;
    [ ("walks", Obs.Json.Int (Array.length !walks)); ("evals_per_walk", Obs.Json.Int evals) ]
  in
  { setup; op; cycle = 21; finish }

(* ---- linarr-n600: six-temperature Figure 1 on the delta path, on a
   NOLA instance about 40x the paper's working set ---- *)

let linarr_n600 ~seed ~scale =
  let evals = scaled scale 30_000 in
  let inst = ref None in
  let setup () =
    let rng = Rng.create ~seed in
    let nl = Netlist.random_nola rng ~elements:600 ~nets:1500 ~min_pins:3 ~max_pins:6 in
    inst := Some (nl, Arrangement.random rng nl)
  in
  let gfun = Gfun.six_temp_annealing in
  let schedule = Runner.schedule_for gfun 1.0 in
  let budget = Budget.Evaluations evals in
  let op ~traced _ =
    let nl, start = Option.get !inst in
    let state = Arrangement.copy start in
    let rng = Rng.create ~seed:(seed + 1) in
    let r =
      if traced then
        Swap_traced.run ~delta_ops:(Probe.delta_ops Swap.delta_ops) rng
          (Swap_traced.params ~gfun:(Probe.gfun_of gfun) ~schedule ~budget ())
          state
      else
        Swap_run.run ~delta_ops:Swap.delta_ops rng
          (Swap_run.params ~gfun ~schedule ~budget ())
          state
    in
    linarr_op ~key:0 [ (nl, r) ]
  in
  let finish () = [ ("evals_per_trial", Obs.Json.Int evals) ] in
  { setup; op; cycle = 1; finish }


(* ---- race-tsp1000: successive halving over the 21-class catalog on
   random TSP n = 1000.  Timed races run on one domain.  A race at
   d = nproc is not an end-to-end number: every stop-the-world minor
   collection waits for the slowest domain, so one descheduled vCPU
   stalls them all, and the canary on this domain cannot see it.  An
   untimed probe after the loop races at both widths for the scaling
   detail and the pool counters. ---- *)

let race_jobs ~traced instance =
  let make_state rng = Tour.random rng instance in
  List.map
    (fun gfun ->
      let label = Gfun.name gfun and schedule = Runner.schedule_for gfun 1.0 in
      if traced then
        Portfolio.Job.figure1
          (module Tsp_traced)
          ~delta_ops:(Probe.delta_ops Tsp_problem.delta_ops)
          ~label ~gfun:(Probe.gfun_of gfun) ~schedule ~make_state ()
      else
        Portfolio.Job.figure1
          (module Tsp_problem)
          ~delta_ops:Tsp_problem.delta_ops ~label ~gfun ~schedule ~make_state ())
    (Gfun.catalog ~m:1)

let race_tsp1000 ~seed ~scale =
  let nproc = Domain.recommended_domain_count () in
  let initial_budget = Budget.Evaluations (scaled scale 5_000) in
  let jobs = ref None in
  let setup () =
    let instance = Tsp_instance.random_uniform (Rng.create ~seed) ~n:1000 in
    jobs := Some (race_jobs ~traced:false instance, race_jobs ~traced:true instance)
  in
  let race ?pool_stats ~domains jobs =
    Portfolio.race ~domains ?pool_stats (Rng.create ~seed:(seed + 1)) ~initial_budget jobs
  in
  let op ~traced _ =
    let plain, timed = Option.get !jobs in
    let report = race ~domains:1 (if traced then timed else plain) in
    {
      key = 0;
      evals = report.Portfolio.total_evaluations;
      digest = Obs.Json.to_string (Portfolio.report_to_json report);
    }
  in
  let finish () =
    let plain, _ = Option.get !jobs in
    let pool_stats =
      Pool.Stats.create
        ~clock:(fun () -> float_of_int (Probe.now_ns ()) *. 1e-9)
        ~workers:nproc ()
    in
    (* Two races at each width, interleaved; wall evals/s of each. *)
    let timed domains =
      let t0 = Probe.now_ns () in
      let pool_stats = if domains > 1 then Some pool_stats else None in
      let report = race ?pool_stats ~domains plain in
      (report, float_of_int report.Portfolio.total_evaluations /. Probe.seconds_since t0)
    in
    let pairs = List.init 2 (fun _ -> (timed 1, timed nproc)) in
    let rate pick = Measure.median (Array.of_list (List.map (fun p -> snd (pick p)) pairs)) in
    let narrow = rate fst and wide = rate snd in
    List.iter
      (fun ((r1, _), (rn, _)) ->
        Measure.expect "race report identical at d = 1 and d = nproc"
          (String.equal
             (Obs.Json.to_string (Portfolio.report_to_json r1))
             (Obs.Json.to_string (Portfolio.report_to_json rn)))
          "")
      pairs;
    let sum f = List.fold_left ( +. ) 0. (List.init nproc f) in
    let busy = sum (Pool.Stats.busy_seconds pool_stats) in
    let idle = sum (Pool.Stats.idle_seconds pool_stats) in
    let count f = int_of_float (sum (fun w -> float_of_int (f pool_stats w))) in
    let report, _ = fst (List.hd pairs) in
    [
      ("nproc", Obs.Json.Int nproc);
      ("probe.wall.evals_per_s_d1", Obs.Json.Float narrow);
      ("probe.wall.evals_per_s_nproc", Obs.Json.Float wide);
      ("scaling_efficiency", Obs.Json.Float (wide /. (float_of_int nproc *. narrow)));
      ("pool.busy_frac", Obs.Json.Float (busy /. (busy +. idle)));
      ("pool.idle_s", Obs.Json.Float idle);
      ("pool.steals", Obs.Json.Int (count Pool.Stats.steals));
      ("pool.tasks", Obs.Json.Int (count Pool.Stats.tasks_run));
      ("portfolio.rungs", Obs.Json.Int (List.length report.Portfolio.rounds));
      ("portfolio.total_evals", Obs.Json.Int report.Portfolio.total_evaluations);
    ]
  in
  { setup; op; cycle = 1; finish }
