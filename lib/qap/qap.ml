type t = {
  flows : int array array;
  distances : int array array;
  loc_of : int array; (* facility -> location *)
  fac_at : int array; (* location -> facility *)
  mutable cost : int;
}

let size t = Array.length t.flows
let location_of t f = t.loc_of.(f)
let facility_at t l = t.fac_at.(l)
let cost t = t.cost

let full_cost flows distances loc_of =
  let n = Array.length flows in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      acc := !acc + (flows.(i).(j) * distances.(loc_of.(i)).(loc_of.(j)))
    done
  done;
  !acc

let validate name m n =
  if Array.length m <> n then invalid_arg (name ^ ": matrix is not n x n");
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg (name ^ ": matrix is not square");
      Array.iteri
        (fun j v ->
          if v < 0 then invalid_arg (name ^ ": negative entry");
          if i = j && v <> 0 then invalid_arg (name ^ ": non-zero diagonal"))
        row)
    m

let create ~flows ~distances =
  let n = Array.length flows in
  if n = 0 then invalid_arg "Qap.create: empty instance";
  validate "Qap.create (flows)" flows n;
  validate "Qap.create (distances)" distances n;
  let flows = Array.map Array.copy flows in
  let distances = Array.map Array.copy distances in
  let loc_of = Array.init n (fun i -> i) in
  {
    flows;
    distances;
    loc_of;
    fac_at = Array.init n (fun i -> i);
    cost = full_cost flows distances loc_of;
  }

let random_instance rng ~n ~max_entry =
  if max_entry < 0 then invalid_arg "Qap.random_instance: negative max_entry";
  let symmetric () =
    let m = Array.make_matrix n n 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let v = Rng.int_range rng 0 max_entry in
        m.(i).(j) <- v;
        m.(j).(i) <- v
      done
    done;
    m
  in
  create ~flows:(symmetric ()) ~distances:(symmetric ())

let linarr_instance ~flows =
  let n = Array.length flows in
  let distances = Array.init n (fun a -> Array.init n (fun b -> abs (a - b))) in
  create ~flows ~distances

(* Classical O(n) swap delta, valid for asymmetric matrices too. *)
let swap_delta t a b =
  if a = b then 0
  else begin
    let f = t.flows and d = t.distances in
    let la = t.loc_of.(a) and lb = t.loc_of.(b) in
    let acc = ref 0 in
    for k = 0 to size t - 1 do
      if k <> a && k <> b then begin
        let lk = t.loc_of.(k) in
        acc :=
          !acc
          + (f.(a).(k) * (d.(lb).(lk) - d.(la).(lk)))
          + (f.(k).(a) * (d.(lk).(lb) - d.(lk).(la)))
          + (f.(b).(k) * (d.(la).(lk) - d.(lb).(lk)))
          + (f.(k).(b) * (d.(lk).(la) - d.(lk).(lb)))
      end
    done;
    acc :=
      !acc
      + (f.(a).(b) * (d.(lb).(la) - d.(la).(lb)))
      + (f.(b).(a) * (d.(la).(lb) - d.(lb).(la)));
    !acc
  end

let swap t a b =
  let n = size t in
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Qap.swap: facility out of range";
  if a <> b then begin
    let delta = swap_delta t a b in
    let la = t.loc_of.(a) and lb = t.loc_of.(b) in
    t.loc_of.(a) <- lb;
    t.loc_of.(b) <- la;
    t.fac_at.(la) <- b;
    t.fac_at.(lb) <- a;
    t.cost <- t.cost + delta
  end

let is_permutation n a =
  Array.length a = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      if x < 0 || x >= n || seen.(x) then false
      else (
        seen.(x) <- true;
        true))
    a

let set_assignment t loc_of =
  if not (is_permutation (size t) loc_of) then
    invalid_arg "Qap.set_assignment: not a permutation";
  Array.blit loc_of 0 t.loc_of 0 (size t);
  Array.iteri (fun fac loc -> t.fac_at.(loc) <- fac) t.loc_of;
  t.cost <- full_cost t.flows t.distances t.loc_of

let copy t =
  { t with loc_of = Array.copy t.loc_of; fac_at = Array.copy t.fac_at }

let check t =
  for f = 0 to size t - 1 do
    if t.fac_at.(t.loc_of.(f)) <> f then failwith "Qap.check: loc_of/fac_at not inverse"
  done;
  if t.cost <> full_cost t.flows t.distances t.loc_of then
    failwith "Qap.check: stale cost"

let descent t =
  let n = size t in
  let applied = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    for a = 0 to n - 2 do
      for b = a + 1 to n - 1 do
        if swap_delta t a b < 0 then begin
          swap t a b;
          incr applied;
          improved := true
        end
      done
    done
  done;
  !applied

module Problem = struct
  type state = t
  type move = int * int

  let cost state = float_of_int state.cost
  let random_move rng state = Rng.pair_distinct rng (size state)
  let apply state (a, b) = swap state a b
  let revert state (a, b) = swap state a b
  let copy = copy

  let moves state = Mc_problem.pairs (size state)

  (* Costs are exact ints represented in float, so the fast path's
     accumulated [hi +. delta] is exact — bit-identical to the slow
     path's recomputed cost. *)
  let delta_ops =
    Mc_problem.delta_ops ~propose:random_move
      ~delta:(fun state (a, b) -> float_of_int (swap_delta state a b))
      ~commit:(fun state (a, b) -> swap state a b)
      ~abandon:(fun _ _ -> ())
      ()
end
