(* Properties of the Arrangement incremental state and its trial
   evaluation, on random GOLA/NOLA instances:

   - after a random walk mixing generic moves, trial+replay commits and
     abandoned trials, the maintained cuts / count at the density / density /
     sum-of-cuts all equal a from-scratch recomputation;
   - [swap_delta] / [relocate_delta] agree with apply-then-measure on
     every probe, and pricing a move leaves the state untouched;
   - the edges of a move's window (adjacent positions, the first and the
     last position, n = 2, either argument order, a copy taken while a
     trial is pending) keep both of the above;
   - the pending trial's lifecycle: a move leaves its inverse pending,
     so reverts, reverts after a copy or after pricing another move,
     apply/revert/apply chains and [set_order] all keep the state equal
     to a from-scratch build of a model order, step by step.

   Each runs on small instances (n in 2-20) and on larger ones (n in
   40-120), where a random move's window spans tens of positions. *)

let density = Arrangement.density
let sum = Arrangement.sum_of_cuts

(* The maintained incremental state vs. a from-scratch rebuild of the
   same order; [check] additionally validates the spans and the cut
   histogram internally. *)
let agrees_with_fresh t =
  let fresh =
    Arrangement.create ~order:(Arrangement.order t) (Arrangement.netlist t)
  in
  Arrangement.check t;
  density t = density fresh
  && sum t = sum fresh
  && Arrangement.cuts t = Arrangement.cuts fresh

let walk_matches_recompute r =
  let t = Gen_instances.make_arrangement r in
  let rng = Gen_instances.walk_rng r in
  let n = Arrangement.size t in
  for _ = 1 to 150 do
    let p, q = Rng.pair_distinct rng n in
    match Rng.int rng 5 with
    | 0 -> Arrangement.swap_positions t p q
    | 1 -> Arrangement.relocate t ~from_pos:p ~to_pos:q
    | 2 ->
        (* trial, then replay commit *)
        ignore (Arrangement.swap_delta t p q : int * int);
        Arrangement.swap_positions t p q
    | 3 ->
        ignore (Arrangement.relocate_delta t ~from_pos:p ~to_pos:q
                 : int * int);
        Arrangement.relocate t ~from_pos:p ~to_pos:q
    | _ ->
        (* trial abandoned: a later unrelated mutation must not
           pick up the stale pending recording *)
        ignore (Arrangement.swap_delta t p q : int * int);
        Arrangement.relocate t ~from_pos:q ~to_pos:p
  done;
  agrees_with_fresh t

let deltas_match_apply_then_measure r =
  let t = Gen_instances.make_arrangement r in
  let rng = Gen_instances.walk_rng r in
  let n = Arrangement.size t in
  let ok = ref true in
  for _ = 1 to 80 do
    let p, q = Rng.pair_distinct rng n in
    let d0 = density t and s0 = sum t in
    (* pricing must not move the state *)
    let dd, ds = Arrangement.swap_delta t p q in
    ok := !ok && density t = d0 && sum t = s0;
    Arrangement.swap_positions t p q;
    ok := !ok && density t - d0 = dd && sum t - s0 = ds;
    (* undo through the generic path: exact restoration *)
    Arrangement.swap_positions t p q;
    ok := !ok && density t = d0 && sum t = s0;
    let f, g = Rng.pair_distinct rng n in
    let dd, ds = Arrangement.relocate_delta t ~from_pos:f ~to_pos:g in
    ok := !ok && density t = d0 && sum t = s0;
    Arrangement.relocate t ~from_pos:f ~to_pos:g;
    ok := !ok && density t - d0 = dd && sum t - s0 = ds;
    (* keep every other relocate so the walk visits many states *)
    if Rng.bool rng then Arrangement.relocate t ~from_pos:g ~to_pos:f
  done;
  !ok && agrees_with_fresh t

(* The move kernel only sweeps the window between a move's positions;
   these probes sit on its edges: adjacent positions, the first and the
   last position, the whole arrangement, either argument order. *)
let edge_pair rng n =
  let p, q = Rng.pair_distinct rng n in
  let p, q =
    match Rng.int rng 4 with
    | 0 ->
        let p = Rng.int rng (n - 1) in
        (p, p + 1)
    | 1 -> (0, q)
    | 2 -> (p, n - 1)
    | _ -> if Rng.bool rng then (0, n - 1) else (p, q)
  in
  if Rng.bool rng then (p, q) else (q, p)

let window_edges_hold r =
  let t = Gen_instances.make_arrangement r in
  let rng = Gen_instances.walk_rng r in
  let n = Arrangement.size t in
  let ok = ref true in
  for _ = 1 to 60 do
    let p, q = edge_pair rng n in
    let d0 = density t and s0 = sum t in
    let forward = Arrangement.swap_delta t p q in
    let backward = Arrangement.swap_delta t q p in
    ok := !ok && forward = backward && density t = d0 && sum t = s0;
    (match Rng.int rng 4 with
    | 0 ->
        (* the pending trial is (q, p); commit it as (p, q) *)
        Arrangement.swap_positions t p q;
        ok := !ok && (density t - d0, sum t - s0) = forward
    | 1 ->
        (* a copy taken mid-trial drops the pending trial and prices
           the move afresh, to the same change *)
        let c = Arrangement.copy t in
        Arrangement.swap_positions t p q;
        Arrangement.swap_positions c q p;
        Arrangement.check c;
        ok :=
          !ok
          && Arrangement.order c = Arrangement.order t
          && (density c - d0, sum c - s0) = forward
    | 2 ->
        (* another swap sharing position p must not replay (q, p) *)
        let r = Rng.int rng n in
        let e = Arrangement.element_at t r in
        Arrangement.swap_positions t p r;
        ok := !ok && Arrangement.element_at t p = e
    | _ ->
        let dd, ds = Arrangement.relocate_delta t ~from_pos:p ~to_pos:q in
        Arrangement.relocate t ~from_pos:p ~to_pos:q;
        ok := !ok && density t - d0 = dd && sum t - s0 = ds);
    Arrangement.check t
  done;
  !ok && agrees_with_fresh t

(* The model: the order itself, moved by plain array operations. *)
let model_swap m p q =
  let x = m.(p) in
  m.(p) <- m.(q);
  m.(q) <- x

let model_relocate m ~from_pos ~to_pos =
  let e = m.(from_pos) in
  if from_pos < to_pos then Array.blit m (from_pos + 1) m from_pos (to_pos - from_pos)
  else Array.blit m to_pos m (to_pos + 1) (from_pos - to_pos);
  m.(to_pos) <- e

let fresh t m = Arrangement.create ~order:m (Arrangement.netlist t)

let matches_model t m =
  Arrangement.check t;
  let f = fresh t m in
  Arrangement.order t = m
  && Arrangement.cuts t = Arrangement.cuts f
  && density t = density f
  && sum t = sum f

(* A random interleaving of moves, reverts, trials, copies and
   [set_order].  After every primitive step the arrangement must equal
   a from-scratch build of the model order, and every priced delta the
   from-scratch difference of the move's model order. *)
let lifecycle_holds r =
  let t = ref (Gen_instances.make_arrangement r) in
  let rng = Gen_instances.walk_rng r in
  let n = Arrangement.size !t in
  let m = ref (Arrangement.order !t) in
  let ok = ref true in
  let agree () = ok := !ok && matches_model !t !m in
  let swap p q =
    Arrangement.swap_positions !t p q;
    model_swap !m p q;
    agree ()
  in
  let relocate f g =
    Arrangement.relocate !t ~from_pos:f ~to_pos:g;
    model_relocate !m ~from_pos:f ~to_pos:g;
    agree ()
  in
  let priced delta move =
    let m' = Array.copy !m in
    move m';
    let f = fresh !t m' in
    ok := !ok && delta = (density f - density !t, sum f - sum !t);
    agree ()
  in
  let swap_delta p q =
    priced (Arrangement.swap_delta !t p q) (fun m' -> model_swap m' p q)
  in
  let relocate_delta f g =
    priced
      (Arrangement.relocate_delta !t ~from_pos:f ~to_pos:g)
      (fun m' -> model_relocate m' ~from_pos:f ~to_pos:g)
  in
  let switch_to_copy () =
    t := Arrangement.copy !t;
    m := Array.copy !m;
    agree ()
  in
  for _ = 1 to 40 do
    let p, q = Rng.pair_distinct rng n in
    let r, s = Rng.pair_distinct rng n in
    match Rng.int rng 9 with
    | 0 ->
        (* immediate revert, in either argument order *)
        swap p q;
        if Rng.bool rng then swap q p else swap p q
    | 1 ->
        relocate p q;
        relocate q p
    | 2 ->
        (* revert after a copy; carry on with either arrangement *)
        swap p q;
        let c = Arrangement.copy !t and mc = Array.copy !m in
        swap p q;
        ok := !ok && matches_model c mc;
        if Rng.bool rng then begin
          t := c;
          m := mc;
          swap q p
        end
    | 3 ->
        relocate p q;
        switch_to_copy ();
        relocate q p
    | 4 ->
        (* revert after pricing another pair (or the same pair) *)
        swap p q;
        if Rng.bool rng then swap_delta r s else relocate_delta r s;
        swap_delta p q;
        swap q p
    | 5 ->
        relocate p q;
        if Rng.bool rng then swap_delta r s else relocate_delta q p;
        relocate q p
    | 6 ->
        (* apply/revert/apply chains *)
        swap p q;
        swap p q;
        swap q p;
        relocate r s;
        relocate s r;
        relocate r s
    | 7 ->
        (* price, then apply; the revert replays *)
        swap_delta p q;
        swap p q;
        relocate_delta r s;
        relocate r s;
        relocate_delta s r;
        relocate s r
    | _ ->
        (* [set_order] between a move and its revert: the revert is a
           fresh move on the new order *)
        swap p q;
        let o = Rng.permutation rng n in
        Arrangement.set_order !t o;
        m := Array.copy o;
        agree ();
        swap p q
  done;
  !ok

let prop ~count recipe name law = QCheck.Test.make ~count ~name recipe law

(* The small range must keep both pricing kernels under test: sizes up
   to [Arrangement.table_max_elements] take the table lookup, larger
   ones the span kernel.  A fixed stream of 120 draws, as many as each
   small-range property makes, lands on both sides. *)
let small_range_straddles_the_table_bound () =
  let rand = Random.State.make [| 24 |] (* sa-lint: allow no-stdlib-random *) in
  let sizes =
    List.map
      (fun (r : Gen_instances.recipe) -> r.n)
      (QCheck.Gen.generate ~rand ~n:120 (QCheck.gen Gen_instances.linarr_recipe))
  in
  let bound = Arrangement.table_max_elements in
  let table = List.length (List.filter (fun n -> n <= bound) sizes) in
  if table = 0 || table = List.length sizes then
    Alcotest.failf "%d of %d small-range sizes at most %d: one kernel untested" table
      (List.length sizes) bound

let tests =
  let small = Gen_instances.linarr_recipe
  and large = Gen_instances.linarr_large_recipe in
  [
    prop ~count:120 small "arrangement: random swap/relocate walk = from-scratch recompute"
      walk_matches_recompute;
    prop ~count:120 small "arrangement: swap/relocate delta = apply-then-measure, every probe"
      deltas_match_apply_then_measure;
    prop ~count:120 small
      "arrangement: window edges (adjacent, ends, either order, copy mid-trial)"
      window_edges_hold;
    prop ~count:40 Gen_instances.linarr_pair_recipe "arrangement: window edges, n = 2"
      window_edges_hold;
    prop ~count:40 large "arrangement: walk = from-scratch recompute, n in 40-120"
      walk_matches_recompute;
    prop ~count:40 large "arrangement: delta = apply-then-measure, n in 40-120"
      deltas_match_apply_then_measure;
    prop ~count:40 large "arrangement: window edges, n in 40-120" window_edges_hold;
    prop ~count:120 small
      "arrangement: pending trial lifecycle (revert, copy, other trial, chains, set_order)"
      lifecycle_holds;
    prop ~count:40 Gen_instances.linarr_pair_recipe "arrangement: pending trial lifecycle, n = 2"
      lifecycle_holds;
    prop ~count:40 large "arrangement: pending trial lifecycle, n in 40-120" lifecycle_holds;
  ]
