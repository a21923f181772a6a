(* Global wiring after [VECC83]: route two-pin nets as L-shapes on a
   grid and anneal the orientation choices to spread congestion.  The
   congestion heat map uses digits for channel load (greater than 9
   shows as '#').

   Run with: dune exec examples/wiring_demo.exe *)

let heat_map w =
  let width = Wiring.width w and height = Wiring.height w in
  (* Interleave cells (+) with horizontal/vertical channel loads. *)
  for y = height - 1 downto 0 do
    for x = 0 to width - 1 do
      print_char '+';
      if x < width - 1 then begin
        let u = Wiring.h_usage w ~x ~y in
        print_string
          (if u = 0 then "---" else if u <= 9 then Printf.sprintf "-%d-" u else "-#-")
      end
    done;
    print_newline ();
    if y > 0 then begin
      for x = 0 to width - 1 do
        let u = Wiring.v_usage w ~x ~y:(y - 1) in
        print_string (if u = 0 then "|" else if u <= 9 then string_of_int u else "#");
        if x < width - 1 then print_string "   "
      done;
      print_newline ()
    end
  done

let stats label w =
  Printf.printf "%-22s cost %6d   worst channel %2d   overflow(cap 4) %d\n" label
    (Wiring.cost w) (Wiring.max_usage w) (Wiring.overflow w ~capacity:4)

let () =
  let rng = Rng.create ~seed:83 in
  let ends = Wiring.random_instance rng ~width:8 ~height:6 ~nets:90 in
  let naive = Wiring.create ~width:8 ~height:6 ends in
  stats "all horizontal-first" naive;
  let greedy = Wiring.copy naive in
  ignore (Wiring.greedy_fixpoint greedy);
  stats "greedy rip-up" greedy;
  let annealed = Wiring.copy naive in
  let schedule = Temperature.suggest_schedule (module Wiring.Problem) (Rng.copy rng) annealed in
  let result =
    Engine.or_raise
      (Engine.run (module Wiring.Problem) (Engine.figure1 ()) ~gfun:Gfun.six_temp_annealing
         ~schedule ~budget:(Budget.Evaluations 20_000) rng annealed)
  in
  let best = result.Mc_problem.best in
  Wiring.check best;
  stats "six-temp annealing" best;
  print_newline ();
  print_endline "annealed congestion map (numbers = wires in the channel):";
  heat_map best
