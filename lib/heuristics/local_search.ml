type descent_report = {
  moves_taken : int;
  moves_tested : int;
  final_density : int;
}

let pairwise_descent ?(steepest = false) state =
  let n = Arrangement.size state in
  let taken = ref 0 and tested = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    if steepest then begin
      (* Price the whole neighborhood; commit the best improving swap. *)
      let best_delta = ref 0 and best_move = ref None in
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          incr tested;
          let delta, _ = Arrangement.swap_delta state p q in
          if delta < !best_delta then begin
            best_delta := delta;
            best_move := Some (p, q)
          end
        done
      done;
      match !best_move with
      | Some (p, q) ->
          Arrangement.swap_positions state p q;
          incr taken;
          improved := true
      | None -> ()
    end
    else begin
      (* First improvement: restart the scan after each accepted swap. *)
      let exception Improved in
      try
        for p = 0 to n - 2 do
          for q = p + 1 to n - 1 do
            incr tested;
            if fst (Arrangement.swap_delta state p q) < 0 then begin
              Arrangement.swap_positions state p q;
              incr taken;
              raise Improved
            end
          done
        done
      with Improved -> improved := true
    end
  done;
  { moves_taken = !taken; moves_tested = !tested; final_density = Arrangement.density state }

let random_restart rng netlist ~restarts ~best_of_descents =
  if restarts <= 0 then invalid_arg "Local_search.random_restart: restarts <= 0";
  let best = ref None in
  for _ = 1 to restarts do
    let candidate = Arrangement.random rng netlist in
    if best_of_descents then ignore (pairwise_descent candidate);
    match !best with
    | Some b when Arrangement.density b <= Arrangement.density candidate -> ()
    | Some _ | None -> best := Some candidate
  done;
  match !best with Some b -> b | None -> assert false
