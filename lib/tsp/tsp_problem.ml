type state = Tour.t
type move = int * int (* positions i < j; reverse the segment i..j *)

let cost = Tour.length

let random_move rng tour =
  let n = Tour.size tour in
  let rec draw () =
    let a, b = Rng.pair_distinct rng n in
    let i = Int.min a b and j = Int.max a b in
    (* Reversing the whole tour is a no-op; redraw. *)
    if i = 0 && j = n - 1 then draw () else (i, j)
  in
  draw ()

let apply tour (i, j) = Tour.two_opt tour i j

(* The reversal is its own inverse, but [Tour.two_opt_undo] also
   restores the cached length bit-for-bit, which plain [two_opt] does
   not (incremental float updates round differently on the way back). *)
let revert tour (i, j) = Tour.two_opt_undo tour i j
let copy = Tour.copy

let moves tour =
  let n = Tour.size tour in
  Mc_problem.pairs n |> Seq.filter (fun (i, j) -> not (i = 0 && j = n - 1))

(* [Tour.two_opt] updates the cached length by [len +. delta], so the
   fast path's accumulated [hi +. delta] matches the committed cached
   length bit-for-bit — the equivalence the property tests assert. *)
let delta_ops =
  Mc_problem.delta_ops ~propose:random_move
    ~delta:(fun tour (i, j) -> Tour.two_opt_delta tour i j)
    ~commit:(fun tour (i, j) -> Tour.two_opt tour i j)
    ~abandon:(fun _ _ -> ())
    ()
