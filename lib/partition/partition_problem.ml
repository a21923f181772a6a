type state = Bipartition.t
type move = int * int (* one element of each side *)

let cost part = float_of_int (Bipartition.cut part)

let random_move rng part =
  let n = Netlist.n_elements (Bipartition.netlist part) in
  let rec draw () =
    let a, b = Rng.pair_distinct rng n in
    if Bipartition.side part a <> Bipartition.side part b then
      if Bipartition.side part a then (b, a) else (a, b)
    else draw ()
  in
  draw ()

let apply part (a, b) = Bipartition.swap part a b
let revert part (a, b) = Bipartition.swap part a b
let copy = Bipartition.copy

let moves part =
  let n = Netlist.n_elements (Bipartition.netlist part) in
  let side_a = ref [] and side_b = ref [] in
  for e = n - 1 downto 0 do
    if Bipartition.side part e then side_b := e :: !side_b
    else side_a := e :: !side_a
  done;
  let side_b = !side_b in
  List.to_seq !side_a
  |> Seq.concat_map (fun a -> List.to_seq side_b |> Seq.map (fun b -> (a, b)))
