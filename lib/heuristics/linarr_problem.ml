(* Move = a pair of positions.  [apply]/[revert] for a swap are the
   same operation (a swap is an involution); relocation reverses by
   relocating back.  Either revert replays the inverse trial the apply
   left pending in the arrangement, so it prices nothing. *)

module Swap = struct
  type state = Arrangement.t
  type move = int * int

  let cost state = float_of_int (Arrangement.density state)

  let random_move rng state =
    Rng.pair_distinct rng (Arrangement.size state)

  let apply state (p, q) = Arrangement.swap_positions state p q
  let revert state (p, q) = Arrangement.swap_positions state p q
  let copy = Arrangement.copy
  let moves state = Mc_problem.pairs (Arrangement.size state)

  (* Density deltas are exact ints represented in float, so the fast
     path's accumulated [hi +. delta] stays bit-identical to the
     recompute path. *)
  let delta_ops =
    Mc_problem.delta_ops ~propose:random_move
      ~delta:(fun state (p, q) ->
        float_of_int (Arrangement.swap_density_delta state p q))
      ~commit:(fun state (p, q) -> Arrangement.swap_positions state p q)
      ~abandon:(fun _ _ -> ())
      ()
end

module Relocate = struct
  type state = Arrangement.t
  type move = int * int (* from_pos, to_pos *)

  let cost state = float_of_int (Arrangement.density state)

  let random_move rng state =
    Rng.pair_distinct rng (Arrangement.size state)

  let apply state (from_pos, to_pos) = Arrangement.relocate state ~from_pos ~to_pos
  let revert state (from_pos, to_pos) = Arrangement.relocate state ~from_pos:to_pos ~to_pos:from_pos

  let copy = Arrangement.copy

  let moves state =
    let n = Arrangement.size state in
    Seq.init (n * n) (fun idx -> (idx / n, idx mod n))
    |> Seq.filter (fun (p, q) -> p <> q)
end

(* Same move, different objective.  The signature constraint leaves out
   [Swap.delta_ops], which prices density, so nothing here can price the
   wrong objective. *)
module Swap_sum_cuts = struct
  include (Swap : Mc_problem.S with type state = Arrangement.t and type move = int * int)

  let cost state = float_of_int (Arrangement.sum_of_cuts state)
end

(* An arrangement serializes as its order array; decoding rebuilds the
   incremental cut state from the netlist, so a checkpoint holds no
   derived data that could go stale. *)
let codec netlist =
  let encode state =
    Obs.Json.List
      (Array.to_list (Array.map (fun e -> Obs.Json.Int e) (Arrangement.order state)))
  in
  let decode json =
    match json with
    | Obs.Json.List items ->
        let n = List.length items in
        let order = Array.make (max n 1) (-1) in
        let ok =
          List.for_all2
            (fun i item ->
              match Obs.Json.to_int item with
              | Some e ->
                  order.(i) <- e;
                  true
              | None -> false)
            (List.init n Fun.id) items
        in
        if not ok then Error "Linarr_problem.codec: non-integer element in order"
        else if n <> Netlist.n_elements netlist then
          Error
            (Printf.sprintf
               "Linarr_problem.codec: order has %d elements but netlist has %d" n
               (Netlist.n_elements netlist))
        else (
          match Arrangement.create ~order netlist with
          | state -> Ok state
          | exception Invalid_argument msg ->
              Error (Printf.sprintf "Linarr_problem.codec: %s" msg))
    | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.Int _ | Obs.Json.Float _
    | Obs.Json.String _ | Obs.Json.Obj _ ->
        Error "Linarr_problem.codec: expected a JSON array of element ids"
  in
  { Mc_problem.encode; decode }
