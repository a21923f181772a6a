type descent_report = {
  moves_taken : int;
  moves_tested : int;
  final_density : int;
}

let pairwise_descent state =
  let n = Arrangement.size state in
  let taken = ref 0 and tested = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    (* First improvement: restart the scan after each accepted swap. *)
    let exception Improved in
    try
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          incr tested;
          if Arrangement.swap_density_delta state p q < 0 then begin
            Arrangement.swap_positions state p q;
            incr taken;
            raise Improved
          end
        done
      done
    with Improved -> improved := true
  done;
  { moves_taken = !taken; moves_tested = !tested; final_density = Arrangement.density state }
