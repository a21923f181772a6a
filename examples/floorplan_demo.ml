(* Slicing-floorplan demo: pack rectangular blocks by annealing a
   normalized Polish expression, then draw the result.  This is the
   Wong-Liu formulation that grew directly out of the DAC-era
   simulated-annealing work the paper examines.

   Run with: dune exec examples/floorplan_demo.exe *)

let draw f =
  let bw, bh = Floorplan.bounding_box f in
  let scale_limit = 72 in
  let sx = max 1 ((bw + scale_limit - 1) / scale_limit) in
  let grid = Array.init (bh + 1) (fun _ -> Bytes.make ((bw / sx) + 1) ' ') in
  Array.iteri
    (fun b (x, y, w, h) ->
      let ch = Char.chr (Char.code 'A' + (b mod 26)) in
      for yy = y to y + h - 1 do
        for xx = x / sx to (x + w - 1) / sx do
          (* draw top-down: row 0 of the grid is the highest y *)
          Bytes.set grid.(bh - 1 - yy) xx ch
        done
      done)
    (Floorplan.realize f);
  Array.iter (fun row -> print_endline (Bytes.to_string row)) grid

let () =
  let rng = Rng.create ~seed:86 in
  let dims = Array.init 12 (fun _ -> (Rng.int_range rng 2 10, Rng.int_range rng 2 10)) in
  let f = Floorplan.create dims in
  Printf.printf "blocks: %d, total block area %d\n" (Floorplan.n_blocks f)
    (Floorplan.total_block_area f);
  Printf.printf "initial (one row): area %d, utilization %.0f%%\n\n" (Floorplan.area f)
    (100. *. Floorplan.utilization f);
  let result =
    Engine.or_raise
      (Engine.run (module Floorplan.Problem) (Engine.figure1 ()) ~gfun:Gfun.six_temp_annealing
         ~schedule:(Schedule.geometric ~y1:30. ~ratio:0.5 ~k:6)
         ~budget:(Budget.Evaluations 20_000) rng f)
  in
  let best = result.Mc_problem.best in
  Floorplan.check best;
  let bw, bh = Floorplan.bounding_box best in
  Printf.printf "annealed: area %.0f (%dx%d), utilization %.0f%%\n"
    result.Mc_problem.best_cost bw bh
    (100. *. Floorplan.utilization best);
  Printf.printf "expression: %s\n\n" (Floorplan.expression best);
  draw best
