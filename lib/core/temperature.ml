(* Initial/final temperature estimation in the spirit of [WHIT84]
   ("Concepts of scale in simulated annealing"): the hot end of a
   schedule should be comparable to the standard deviation of the cost
   over an infinite-temperature walk, and the cold end small relative
   to the smallest uphill step, so the last temperature accepts almost
   nothing. *)

type estimate = {
  sigma : float;
  mean_abs_delta : float;
  min_uphill : float;
  suggested_y1 : float;
  suggested_yk : float;
}

(* The walk's length and the suggested schedule's number of
   temperatures (the paper's six-temperature shape). *)
let samples = 500
let k = 6

let estimate (type s) (module P : Mc_problem.S with type state = s) rng (state : s) =
  let work = P.copy state in
  let costs = Stats.Online.create () in
  let abs_deltas = Stats.Online.create () in
  let min_uphill = ref infinity in
  let h = ref (P.cost work) in
  Stats.Online.add costs !h;
  for _ = 1 to samples do
    (* Infinite-temperature walk: accept everything. *)
    let m = P.random_move rng work in
    P.apply work m;
    let h' = P.cost work in
    let d = h' -. !h in
    Stats.Online.add abs_deltas (Float.abs d);
    if d > 0. && d < !min_uphill then min_uphill := d;
    h := h';
    Stats.Online.add costs !h
  done;
  let sigma = Stats.Online.stddev costs in
  let min_uphill = if Float.is_finite !min_uphill then !min_uphill else 1. in
  {
    sigma;
    mean_abs_delta = Stats.Online.mean abs_deltas;
    min_uphill;
    (* Y1 = sigma accepts a one-sigma climb with probability e^-1;
       Yk = min_uphill / 3 accepts the smallest climb with e^-3. *)
    suggested_y1 = Float.max sigma 1e-9;
    suggested_yk = Float.max (min_uphill /. 3.) 1e-9;
  }

let suggest_schedule problem rng state =
  let e = estimate problem rng state in
  let ratio = (e.suggested_yk /. e.suggested_y1) ** (1. /. float_of_int (k - 1)) in
  let ratio = Float.min 1. (Float.max 1e-6 ratio) in
  Schedule.geometric ~y1:e.suggested_y1 ~ratio ~k
