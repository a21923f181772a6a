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
  let total = n * (n - 1) / 2 in
  let pair_of idx =
    let rec find i remaining =
      let row = n - 1 - i in
      if remaining < row then (i, i + 1 + remaining) else find (i + 1) (remaining - row)
    in
    find 0 idx
  in
  Seq.init total pair_of |> Seq.filter (fun (i, j) -> not (i = 0 && j = n - 1))

(* [Tour.two_opt] updates the cached length by [len +. delta], so the
   fast path's accumulated [hi +. delta] matches the committed cached
   length bit-for-bit — the equivalence the property tests assert. *)
let delta_ops =
  Mc_problem.delta_ops ~kind:"2opt" ~propose:random_move
    ~delta:(fun tour (i, j) -> Tour.two_opt_delta tour i j)
    ~commit:(fun tour (i, j) -> Tour.two_opt tour i j)
    ~abandon:(fun _ _ -> ())
    ()

module Or_opt = struct
  type state = Tour.t

  type move = {
    seg : int;
    len : int;
    dest : int;
    mutable saved_order : int array;  (* filled by [apply] *)
    mutable saved_len : float;
  }

  let cost = Tour.length

  (* Mirrors [Tour.check_or_opt]: the destination may not touch the
     segment (including the wrap-around seam when [seg = 0]). *)
  let valid n ~seg ~len ~dest =
    (not (dest >= seg - 1 && dest < seg + len)) && not (seg = 0 && dest = n - 1)

  (* Capped so that every (len, seg) pair leaves at least one legal
     destination — [n >= len + 2] guarantees it, so the rejection draw
     below terminates. *)
  let max_len n = min 3 (n - 2)

  let mk ~seg ~len ~dest = { seg; len; dest; saved_order = [||]; saved_len = 0. }

  let random_move rng tour =
    let n = Tour.size tour in
    if n < 3 then invalid_arg "Tsp_problem.Or_opt.random_move: need >= 3 cities";
    let rec draw () =
      let len = Rng.int_range rng 1 (max_len n) in
      let seg = Rng.int rng (n - len + 1) in
      let dest = Rng.int rng n in
      if valid n ~seg ~len ~dest then mk ~seg ~len ~dest else draw ()
    in
    draw ()

  (* A segment move is not its own inverse and the cached length is
     maintained by delta arithmetic, so [apply] snapshots the order and
     length and [revert] restores both bit-for-bit. *)
  let apply tour m =
    m.saved_order <- Tour.order tour;
    m.saved_len <- Tour.length tour;
    Tour.or_opt tour ~seg:m.seg ~len:m.len ~dest:m.dest

  let revert tour m = Tour.restore tour ~order:m.saved_order ~len:m.saved_len
  let copy = Tour.copy

  let moves tour =
    let n = Tour.size tour in
    if n < 3 then Seq.empty
    else
      Seq.init (max_len n) (fun l -> l + 1)
      |> Seq.concat_map (fun len ->
             Seq.init
               (n - len + 1)
               (fun seg ->
                 Seq.init n (fun dest ->
                     if valid n ~seg ~len ~dest then Some (mk ~seg ~len ~dest)
                     else None)
                 |> Seq.filter_map Fun.id)
             |> Seq.concat)

  (* [Tour.or_opt] also updates the cached length by [len +. delta],
     giving the same bit-exact fast/slow agreement as 2-opt. *)
  let delta_ops =
    Mc_problem.delta_ops ~kind:"or_opt" ~propose:random_move
      ~delta:(fun tour m -> Tour.or_opt_delta tour ~seg:m.seg ~len:m.len ~dest:m.dest)
      ~commit:(fun tour m -> Tour.or_opt tour ~seg:m.seg ~len:m.len ~dest:m.dest)
      ~abandon:(fun _ _ -> ())
      ()
end
