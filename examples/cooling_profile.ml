(* Watch the walk: a trajectory observer records the cost of every
   proposed configuration without touching the problem, so we can plot
   (in ASCII) how six-temperature annealing's trajectory differs from
   g = 1's on the same instance — annealing wanders high while hot and
   condenses as the schedule cools; g = 1 descends immediately and
   then hops plateaus.

   Run with: dune exec examples/cooling_profile.exe *)

let sparkline series ~rows ~cols =
  match series with
  | [||] -> "(empty)"
  | _ ->
      let costs = Array.map snd series in
      let lo = Array.fold_left Float.min costs.(0) costs in
      let hi = Array.fold_left Float.max costs.(0) costs in
      let span = Float.max 1e-9 (hi -. lo) in
      let n = Array.length series in
      let grid = Array.init rows (fun _ -> Bytes.make cols ' ') in
      Array.iteri
        (fun i (_, c) ->
          let x = i * cols / n in
          let y = int_of_float ((c -. lo) /. span *. float_of_int (rows - 1)) in
          let y = rows - 1 - min (rows - 1) (max 0 y) in
          Bytes.set grid.(y) x '*')
        series;
      let buf = Buffer.create (rows * (cols + 12)) in
      Array.iteri
        (fun r line ->
          let label =
            if r = 0 then Printf.sprintf "%6.0f |" hi
            else if r = rows - 1 then Printf.sprintf "%6.0f |" lo
            else "       |"
          in
          Buffer.add_string buf (label ^ Bytes.to_string line ^ "\n"))
        grid;
      Buffer.contents buf

let profile name gfun schedule state0 =
  let recorder = Obs.Trajectory.create 240 in
  let result =
    Engine.or_raise
      (Engine.run (module Linarr_problem.Swap) ~observer:(Obs.Trajectory.observer recorder)
         (Engine.figure1 ()) ~gfun ~schedule ~budget:(Budget.Evaluations 6_000)
         (Rng.create ~seed:5) (Arrangement.copy state0))
  in
  Printf.printf "%s  (best %d, %d cost evaluations, stride %d)\n"
    name
    (int_of_float result.Mc_problem.best_cost)
    (Obs.Trajectory.count recorder)
    (Obs.Trajectory.stride recorder);
  print_string (sparkline (Obs.Trajectory.series recorder) ~rows:10 ~cols:72);
  print_newline ()

let () =
  let rng = Rng.create ~seed:1985 in
  let netlist = Netlist.random_gola rng ~elements:15 ~nets:150 in
  let start = Arrangement.random rng netlist in
  Printf.printf "one GOLA instance, starting density %d\n\n" (Arrangement.density start);
  profile "six-temperature annealing (hot start, geometric cooling)"
    Gfun.six_temp_annealing
    (Schedule.geometric ~y1:6. ~ratio:0.6 ~k:6)
    start;
  profile "g = 1 (immediate descent, deferred uphill)" Gfun.g_one
    (Schedule.constant ~k:1 1.)
    start
