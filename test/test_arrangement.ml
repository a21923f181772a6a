let case name f = Alcotest.test_case name `Quick f

(* Path graph 0-1-2-3: identity order has every cut = 1. *)
let path4 () =
  Netlist.create ~n_elements:4 ~pins:[| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] |]

let small_nola () =
  Netlist.create ~n_elements:5
    ~pins:[| [| 0; 4 |]; [| 1; 2; 3 |]; [| 0; 1 |]; [| 3; 4 |] |]

let test_identity_path () =
  let arr = Arrangement.create (path4 ()) in
  Alcotest.check Alcotest.(array int) "cuts all 1" [| 1; 1; 1 |] (Arrangement.cuts arr);
  Alcotest.check Alcotest.int "density 1" 1 (Arrangement.density arr);
  Alcotest.check Alcotest.int "sum 3" 3 (Arrangement.sum_of_cuts arr)

let test_known_density () =
  (* Order 1 0 2 3 on the path: net {0,1} spans 0-1, net {1,2} spans
     0-2, net {2,3} spans 2-3; cuts = [2; 1; 1]. *)
  let arr = Arrangement.create ~order:[| 1; 0; 2; 3 |] (path4 ()) in
  Alcotest.check Alcotest.(array int) "cuts" [| 2; 1; 1 |] (Arrangement.cuts arr);
  Alcotest.check Alcotest.int "density" 2 (Arrangement.density arr)

let test_multi_pin_span () =
  (* Net {1,2,3} at identity order spans positions 1..3: crosses cuts 1
     and 2 once regardless of the middle pin. *)
  let arr = Arrangement.create (small_nola ()) in
  (* nets: {0,4} spans 0..4 -> cuts 0,1,2,3; {1,2,3} -> cuts 1,2;
     {0,1} -> cut 0; {3,4} -> cut 3 *)
  Alcotest.check Alcotest.(array int) "cuts" [| 2; 2; 2; 2 |] (Arrangement.cuts arr);
  Alcotest.check Alcotest.int "density" 2 (Arrangement.density arr)

let test_positions_inverse () =
  let arr = Arrangement.create ~order:[| 2; 0; 3; 1 |] (path4 ()) in
  for p = 0 to 3 do
    Alcotest.check Alcotest.int "inverse" p (Arrangement.position_of arr (Arrangement.element_at arr p))
  done;
  Alcotest.check Alcotest.int "element_at 0" 2 (Arrangement.element_at arr 0);
  Alcotest.check Alcotest.int "position_of 1" 3 (Arrangement.position_of arr 1)

let test_create_validation () =
  let nl = path4 () in
  let bad order =
    match Arrangement.create ~order nl with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad [| 0; 1; 2 |];
  bad [| 0; 1; 2; 2 |];
  bad [| 0; 1; 2; 4 |]

let test_swap_updates_density () =
  let arr = Arrangement.create ~order:[| 1; 0; 2; 3 |] (path4 ()) in
  Arrangement.swap_positions arr 0 1;
  (* back to identity *)
  Alcotest.check Alcotest.(array int) "cuts back to identity" [| 1; 1; 1 |] (Arrangement.cuts arr);
  Arrangement.check arr

let test_swap_self_is_noop () =
  let arr = Arrangement.create (small_nola ()) in
  let before = Arrangement.cuts arr in
  Arrangement.swap_positions arr 2 2;
  Alcotest.check Alcotest.(array int) "unchanged" before (Arrangement.cuts arr)

let test_swap_is_involution () =
  let rng = Rng.create ~seed:4 in
  let nl = Netlist.random_nola rng ~elements:10 ~nets:40 ~min_pins:2 ~max_pins:4 in
  let arr = Arrangement.random rng nl in
  let before = Arrangement.order arr in
  Arrangement.swap_positions arr 3 8;
  Arrangement.swap_positions arr 3 8;
  Alcotest.check Alcotest.(array int) "restored" before (Arrangement.order arr);
  Arrangement.check arr

let test_swap_elements_matches_positions () =
  let nl = path4 () in
  let a = Arrangement.create ~order:[| 2; 0; 3; 1 |] nl in
  let b = Arrangement.copy a in
  Arrangement.swap_elements a 0 1;
  Arrangement.swap_positions b (Arrangement.position_of b 0) (Arrangement.position_of b 1);
  Alcotest.check Alcotest.(array int) "same order" (Arrangement.order a) (Arrangement.order b)

let test_copy_independent () =
  let arr = Arrangement.create (path4 ()) in
  let snapshot = Arrangement.copy arr in
  Arrangement.swap_positions arr 0 3;
  Alcotest.check Alcotest.(array int) "copy unchanged" [| 0; 1; 2; 3 |] (Arrangement.order snapshot);
  Arrangement.check snapshot;
  Arrangement.check arr

let test_relocate_forward () =
  let arr = Arrangement.create (path4 ()) in
  Arrangement.relocate arr ~from_pos:0 ~to_pos:2;
  Alcotest.check Alcotest.(array int) "shifted" [| 1; 2; 0; 3 |] (Arrangement.order arr);
  Arrangement.check arr

let test_relocate_backward () =
  let arr = Arrangement.create (path4 ()) in
  Arrangement.relocate arr ~from_pos:3 ~to_pos:1;
  Alcotest.check Alcotest.(array int) "shifted" [| 0; 3; 1; 2 |] (Arrangement.order arr);
  Arrangement.check arr

let test_relocate_inverse () =
  let rng = Rng.create ~seed:9 in
  let nl = Netlist.random_gola rng ~elements:8 ~nets:20 in
  let arr = Arrangement.random rng nl in
  let before = Arrangement.order arr in
  Arrangement.relocate arr ~from_pos:2 ~to_pos:6;
  Arrangement.relocate arr ~from_pos:6 ~to_pos:2;
  Alcotest.check Alcotest.(array int) "restored" before (Arrangement.order arr)

let test_set_order () =
  let arr = Arrangement.create (path4 ()) in
  Arrangement.set_order arr [| 3; 2; 1; 0 |];
  Alcotest.check Alcotest.(array int) "reversed" [| 3; 2; 1; 0 |] (Arrangement.order arr);
  (* reversal of a path keeps all cuts at 1 *)
  Alcotest.check Alcotest.int "density invariant under reversal" 1 (Arrangement.density arr);
  Arrangement.check arr

let test_density_of_order () =
  Alcotest.check Alcotest.int "one-shot density" 2
    (Arrangement.density_of_order (path4 ()) [| 1; 0; 2; 3 |])

let test_tiny_arrangements () =
  let one = Netlist.create ~n_elements:1 ~pins:[||] in
  let arr = Arrangement.create one in
  Alcotest.check Alcotest.int "single element density 0" 0 (Arrangement.density arr);
  let two = Netlist.create ~n_elements:2 ~pins:[| [| 0; 1 |] |] in
  let arr2 = Arrangement.create two in
  Alcotest.check Alcotest.int "two elements density 1" 1 (Arrangement.density arr2);
  Arrangement.swap_positions arr2 0 1;
  Alcotest.check Alcotest.int "still 1 after swap" 1 (Arrangement.density arr2)

let test_move_argument_validation () =
  let arr = Arrangement.create (path4 ()) in
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Arrangement.swap_positions arr 0 4);
  invalid (fun () -> Arrangement.swap_positions arr (-1) 2);
  invalid (fun () -> Arrangement.swap_elements arr 0 9);
  invalid (fun () -> Arrangement.relocate arr ~from_pos:0 ~to_pos:4);
  invalid (fun () -> Arrangement.set_order arr [| 0; 1; 2 |]);
  (* the failed calls must not have corrupted anything *)
  Arrangement.check arr

let test_sum_of_cuts_tracks_moves () =
  let rng = Rng.create ~seed:41 in
  let nl = Netlist.random_nola rng ~elements:9 ~nets:30 ~min_pins:2 ~max_pins:4 in
  let arr = Arrangement.random rng nl in
  for _ = 1 to 40 do
    let p, q = Rng.pair_distinct rng 9 in
    Arrangement.swap_positions arr p q;
    let fresh = Array.fold_left ( + ) 0 (Arrangement.cuts arr) in
    Alcotest.check Alcotest.int "sum matches cuts" fresh (Arrangement.sum_of_cuts arr)
  done

let test_parallel_nets_count_separately () =
  let nl = Netlist.create ~n_elements:2 ~pins:[| [| 0; 1 |]; [| 0; 1 |]; [| 0; 1 |] |] in
  let arr = Arrangement.create nl in
  Alcotest.check Alcotest.int "three parallel nets" 3 (Arrangement.density arr)

let random_walk_consistency ~elements ~nets ~multi ~steps ~seed =
  let rng = Rng.create ~seed in
  let nl =
    if multi then Netlist.random_nola rng ~elements ~nets ~min_pins:2 ~max_pins:5
    else Netlist.random_gola rng ~elements ~nets
  in
  let arr = Arrangement.random rng nl in
  for step = 1 to steps do
    (match Rng.int rng 3 with
    | 0 ->
        let p, q = Rng.pair_distinct rng elements in
        Arrangement.swap_positions arr p q
    | 1 ->
        let a, b = Rng.pair_distinct rng elements in
        Arrangement.swap_elements arr a b
    | _ ->
        let from_pos, to_pos = Rng.pair_distinct rng elements in
        Arrangement.relocate arr ~from_pos ~to_pos);
    if step mod 7 = 0 then Arrangement.check arr
  done;
  Arrangement.check arr

let test_walk_gola () = random_walk_consistency ~elements:12 ~nets:60 ~multi:false ~steps:300 ~seed:31
let test_walk_nola () = random_walk_consistency ~elements:12 ~nets:60 ~multi:true ~steps:300 ~seed:32
let test_walk_paper_size () =
  random_walk_consistency ~elements:15 ~nets:150 ~multi:false ~steps:200 ~seed:33

let prop_density_matches_recompute =
  let gen =
    QCheck.Gen.(
      int_range 2 12 >>= fun elements ->
      int_range 1 30 >>= fun nets ->
      int >>= fun seed ->
      int_range 0 40 >|= fun swaps -> (elements, nets, seed, swaps))
  in
  QCheck.Test.make ~name:"qcheck: incremental density = density_of_order after random swaps"
    (QCheck.make gen)
    (fun (elements, nets, seed, swaps) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_gola rng ~elements ~nets in
      let arr = Arrangement.random rng nl in
      for _ = 1 to swaps do
        let p, q = Rng.pair_distinct rng elements in
        Arrangement.swap_positions arr p q
      done;
      Arrangement.density arr = Arrangement.density_of_order nl (Arrangement.order arr))

let prop_density_bounded_by_nets =
  let gen =
    QCheck.Gen.(
      int_range 2 10 >>= fun elements ->
      int_range 0 25 >>= fun nets ->
      int >|= fun seed -> (elements, nets, seed))
  in
  QCheck.Test.make ~name:"qcheck: 0 <= density <= number of nets"
    (QCheck.make gen)
    (fun (elements, nets, seed) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_gola rng ~elements ~nets in
      let arr = Arrangement.random rng nl in
      let d = Arrangement.density arr in
      d >= 0 && d <= nets)

let prop_reversal_preserves_density =
  QCheck.Test.make ~name:"qcheck: reversing the arrangement preserves density"
    (QCheck.make
       QCheck.Gen.(
         int_range 2 10 >>= fun elements ->
         int_range 1 25 >>= fun nets ->
         int >|= fun seed -> (elements, nets, seed)))
    (fun (elements, nets, seed) ->
      let rng = Rng.create ~seed in
      let nl = Netlist.random_gola rng ~elements ~nets in
      let arr = Arrangement.random rng nl in
      let d = Arrangement.density arr in
      let reversed =
        Array.init elements (fun p -> Arrangement.element_at arr (elements - 1 - p))
      in
      Arrangement.density_of_order nl reversed = d)

(* A copy holds the order: n words plus its header and the record.
   Its cuts and spans are rebuilt at its first use, and the trial
   scratch stays with the state that priced the trial. *)
let test_copy_words () =
  let rng = Rng.create ~seed:60 in
  let n = 600 and m = 1500 in
  let nl = Netlist.random_nola rng ~elements:n ~nets:m ~min_pins:3 ~max_pins:6 in
  let t = Arrangement.random rng nl in
  for _ = 1 to 50 do
    let p, q = Rng.pair_distinct rng n in
    Arrangement.swap_positions t p q
  done;
  ignore (Arrangement.swap_delta t 3 500);
  let c = Arrangement.copy t in
  let words = Obj.reachable_words (Obj.repr c) - Obj.reachable_words (Obj.repr nl) in
  let bound = n + 64 in
  if words > bound then
    Alcotest.failf "a copy at n = %d, m = %d holds %d words, over n + 64 = %d" n m words bound;
  Arrangement.check c;
  Alcotest.check Alcotest.(array int) "same order" (Arrangement.order t) (Arrangement.order c);
  Arrangement.swap_positions c 3 500;
  Arrangement.swap_positions t 3 500;
  Arrangement.check c;
  Alcotest.check Alcotest.(array int) "same move" (Arrangement.order t) (Arrangement.order c)

(* Every trial resolves the new density one of three ways (see
   [resolve]): the window's max after the move reaches the old
   density [d]; a boundary at [d] keeps its cut outside the window; or
   a fallback takes the max of the window and the cuts outside it.
   [branch] replays that rule on the cuts before and after a move whose
   window covers boundaries [w0, w1), and tells apart a fallback whose
   answer lies outside the window. *)
let branch ~before ~after w0 w1 =
  let d = Array.fold_left max 0 before in
  let top = ref 0 and hit = ref 0 in
  for x = w0 to w1 - 1 do
    top := max !top after.(x);
    if before.(x) = d && after.(x) <> before.(x) then incr hit
  done;
  let at_d = Array.fold_left (fun acc v -> if v = d then acc + 1 else acc) 0 before in
  if !top >= d then `Window_max
  else if at_d > !hit then `Kept
  else if Array.fold_left max 0 after > !top then `Fallback_outside
  else `Fallback_window

(* Price every swap and every relocate of [order] on [nl], check each
   delta against a from-scratch recompute of the moved order, and
   return the branch and window of each move. *)
let density_branches nl order =
  let n = Array.length order in
  let arr = Arrangement.create ~order nl in
  let before = Arrangement.cuts arr in
  let seen = ref [] in
  let try_move name w0 w1 delta apply =
    let d_delta, s_delta = delta () in
    let moved = Arrangement.copy arr in
    apply moved;
    let after = Arrangement.cuts moved in
    let fresh = Arrangement.density_of_order nl (Arrangement.order moved) in
    Alcotest.check Alcotest.int (name ^ " density") fresh (Arrangement.density arr + d_delta);
    Alcotest.check Alcotest.int (name ^ " sum")
      (Array.fold_left ( + ) 0 after)
      (Arrangement.sum_of_cuts arr + s_delta);
    Arrangement.check arr;
    seen := (branch ~before ~after w0 w1, w0, w1) :: !seen
  in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if p <> q then begin
        let w0 = min p q and w1 = max p q in
        if p < q then
          try_move (Printf.sprintf "swap %d %d" p q) w0 w1
            (fun () -> Arrangement.swap_delta arr p q)
            (fun t -> Arrangement.swap_positions t p q);
        try_move (Printf.sprintf "relocate %d -> %d" p q) w0 w1
          (fun () -> Arrangement.relocate_delta arr ~from_pos:p ~to_pos:q)
          (fun t -> Arrangement.relocate t ~from_pos:p ~to_pos:q)
      end
    done
  done;
  !seen

(* [pad] elements without nets follow the six that carry them, so the
   same cuts, padded with zeros, can be priced by either kernel. *)
let density_branches_hold ~pad =
  (* Element 0 has three nets to elements 2, 3, 4 and two parallel nets
     to element 1; element 5 hangs off element 4.  At the identity the
     cuts are [5; 3; 2; 1; 1]: the density sits at boundary 0 alone, so
     swapping positions 0 and 1 drops it to 2 and the new density, 3,
     is found outside the window. *)
  let n = 6 + pad in
  let nl =
    Netlist.create ~n_elements:n
      ~pins:[| [| 0; 2 |]; [| 0; 3 |]; [| 0; 4 |]; [| 0; 1 |]; [| 0; 1 |]; [| 4; 5 |] |]
  in
  let id = Array.init n Fun.id in
  let rev = Array.init n (fun p -> n - 1 - p) in
  let arr = Arrangement.create ~order:id nl in
  Alcotest.check Alcotest.(array int) "cuts"
    (Array.append [| 5; 3; 2; 1; 1 |] (Array.make pad 0))
    (Arrangement.cuts arr);
  Alcotest.check Alcotest.(pair int int) "swap 0 1 falls back outside" (-2, -3)
    (Arrangement.swap_delta arr 0 1);
  (* Mirrored, the lone maximum is the last boundary. *)
  let arr = Arrangement.create ~order:rev nl in
  Alcotest.check Alcotest.(pair int int) "swap n-2 n-1 falls back outside" (-2, -3)
    (Arrangement.swap_delta arr (n - 2) (n - 1));
  let seen = density_branches nl id @ density_branches nl rev in
  let reached what pred =
    if not (List.exists pred seen) then Alcotest.failf "no move reached %s" what
  in
  reached "a window max at the density" (fun (b, _, _) -> b = `Window_max);
  reached "an unchanged boundary at the density" (fun (b, _, _) -> b = `Kept);
  reached "a fallback inside the window" (fun (b, _, _) -> b = `Fallback_window);
  reached "a fallback outside a window at position 0" (fun (b, w0, _) ->
      b = `Fallback_outside && w0 = 0);
  reached "a fallback outside a window at position n-1" (fun (b, _, w1) ->
      b = `Fallback_outside && w1 = n - 1)

(* Six elements take the table kernel; padded past its bound, the same
   moves take the span kernel. *)
let test_density_branches () =
  density_branches_hold ~pad:0;
  density_branches_hold ~pad:(Arrangement.table_max_elements - 5)

(* A copy whose first use has rebuilt its cuts and spans: the state
   less its trial scratch. *)
let settled_copy t =
  let c = Arrangement.copy t in
  Arrangement.check c;
  c

(* The scratch a state allocates on its first trial: per net a mark, a
   touched slot and a pending span (4m words), per position the window
   (n), plus array headers. *)
let test_scratch_words () =
  let rng = Rng.create ~seed:61 in
  let n = 600 and m = 1500 in
  let nl = Netlist.random_nola rng ~elements:n ~nets:m ~min_pins:3 ~max_pins:6 in
  let t = Arrangement.random rng nl in
  ignore (Arrangement.swap_delta t 3 500);
  let words = Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr (settled_copy t)) in
  let bound = (4 * m) + n + 64 in
  if words > bound then
    Alcotest.failf "trial scratch at n = %d, m = %d is %d words, over 4m + n + 64 = %d" n m
      words bound;
  Arrangement.check t

(* In table mode [check] also reads every cut back from the netlist's
   table of subset cuts, so one corrupt cell fails it. *)
let test_check_reads_table () =
  let rng = Rng.create ~seed:62 in
  let n = 10 in
  let nl = Netlist.random_nola rng ~elements:n ~nets:40 ~min_pins:2 ~max_pins:4 in
  let t = Arrangement.random rng nl in
  ignore (Arrangement.swap_delta t 2 7);
  Arrangement.check t;
  (* The cell of the set left of boundary 0, folded as documented. *)
  let e = Arrangement.element_at t 0 in
  let cell = if e = n - 1 then (1 lsl n) - 1 - (1 lsl e) else 1 lsl e in
  let table = Netlist.cut_table nl in
  let v = Bytes.get_uint16_le table (2 * cell) in
  Bytes.set_uint16_le table (2 * cell) (v + 1);
  let caught = match Arrangement.check t with () -> false | exception Failure _ -> true in
  Bytes.set_uint16_le table (2 * cell) v;
  Alcotest.check Alcotest.bool "a corrupt table cell fails check" true caught;
  Arrangement.check t

(* At the table bound a state's first trial allocates only the window's
   new cuts (n words), and its settled copy holds no per-net array: the
   subset cuts live in the netlist.  One element more and the span
   kernel's 4m words of scratch are back. *)
let test_table_scratch_words () =
  let rng = Rng.create ~seed:63 in
  let m = 300 in
  let words n =
    let nl = Netlist.random_nola rng ~elements:n ~nets:m ~min_pins:2 ~max_pins:5 in
    let t = Arrangement.random rng nl in
    ignore (Arrangement.swap_delta t 1 (n - 2));
    Arrangement.check t;
    let c = settled_copy t in
    ( Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr c),
      Obj.reachable_words (Obj.repr c) - Obj.reachable_words (Obj.repr nl) )
  in
  let n = Arrangement.table_max_elements in
  let scratch, copy = words n in
  if scratch > n + 8 then
    Alcotest.failf "first trial at n = %d allocates %d words, over n + 8" n scratch;
  (* order, positions, cuts and prefix masks *)
  if copy > (4 * n) + 64 then
    Alcotest.failf "a copy at n = %d holds %d words, over 4n + 64" n copy;
  let scratch, _ = words (n + 1) in
  if scratch < 4 * m then
    Alcotest.failf "first trial at n = %d allocates %d words, under the span scratch's 4m"
      (n + 1) scratch

(* The two kernels, move by move.  At every size from 2 to the table
   bound a table-mode state and a span-mode state of the same order
   ([Private.create_span]) take the same seeded mix of about 10^4
   operations: swaps and relocates (both directions) priced, applied,
   or undone by their inverse while still applied, and copies that
   replace the state.  Every trial must price the same density and sum
   changes in both kernels, and the change a fresh [create] of the
   moved order shows.  After every operation both states must read the
   density and sum of a fresh [create] of the order they should hold;
   after a third of them, drawn at random so that moves also meet an
   applied move unread, every accessor must read as that replica does,
   both kernels must hold the same pending trial, and [check] must
   pass.

   An applied move that lowers the density has every boundary at the
   old density inside its window.  Its replay takes the count of the
   boundaries outside the window at the new density from the trial's
   scan of the cuts outside the window, the one count a replay does
   not derive from the state's own.  [check] must pass after that
   replay and after the replay of its inverse, and each kernel must
   take that path at least once. *)
let test_kernels_agree () =
  let open Alcotest in
  let rng = Rng.create ~seed:64 in
  let sizes = Arrangement.table_max_elements - 1 in
  let steps = (10_000 + sizes - 1) / sizes in
  let drops = [| 0; 0 |] in
  for n = 2 to Arrangement.table_max_elements do
    let nl =
      Netlist.random_nola rng ~elements:n ~nets:(3 * n) ~min_pins:2 ~max_pins:(min n 5)
    in
    let order = Rng.permutation rng n in
    let tab = ref (Arrangement.create ~order nl) in
    let span = ref (Arrangement.Private.create_span ~order nl) in
    check bool "table kernel" true (Arrangement.Private.is_table !tab);
    check bool "span kernel" false (Arrangement.Private.is_table !span);
    (* The order both states should hold, moved eagerly, and the move
       still applied since the states were last read, if any. *)
    let replica = Array.copy order in
    let applied = ref None in
    let move_replica swap p q =
      if swap then begin
        let e = replica.(p) in
        replica.(p) <- replica.(q);
        replica.(q) <- e
      end
      else begin
        let e = replica.(p) in
        if p < q then Array.blit replica (p + 1) replica p (q - p)
        else Array.blit replica q replica (q + 1) (p - q);
        replica.(q) <- e
      end
    in
    (* Any read but [density] and [sum_of_cuts] commits an applied move,
       so only the first can find one: a random reader goes first. *)
    let reads what t =
      let r = Arrangement.create ~order:replica nl in
      let cuts = Arrangement.cuts r in
      let readers =
        [|
          (fun () -> check (array int) (what ^ ": order") replica (Arrangement.order t));
          (fun () ->
            for p = 0 to n - 1 do
              check int (what ^ ": element_at") replica.(p) (Arrangement.element_at t p)
            done);
          (fun () ->
            for p = 0 to n - 1 do
              check int (what ^ ": position_of") p (Arrangement.position_of t replica.(p))
            done);
          (fun () -> check (array int) (what ^ ": cuts") cuts (Arrangement.cuts t));
          (fun () -> Array.iteri (fun p c -> check int (what ^ ": cut") c (Arrangement.cut t p)) cuts);
          (fun () -> check (array int) (what ^ ": copy") replica (Arrangement.order (Arrangement.copy t)));
          (fun () -> Arrangement.check t);
        |]
      in
      let first = Rng.int rng (Array.length readers) in
      Array.iteri (fun i _ -> readers.((first + i) mod Array.length readers) ()) readers
    in
    let costs what t =
      let r = Arrangement.create ~order:replica nl in
      check int (what ^ ": density") (Arrangement.density r) (Arrangement.density t);
      check int (what ^ ": sum") (Arrangement.sum_of_cuts r) (Arrangement.sum_of_cuts t)
    in
    for step = 1 to steps do
      let p, q = Rng.pair_distinct rng n in
      let swap = Rng.bool rng in
      let what =
        Printf.sprintf "n = %d, step %d, %s %d %d" n step (if swap then "swap" else "relocate") p q
      in
      let apply t =
        if swap then Arrangement.swap_positions t p q
        else Arrangement.relocate t ~from_pos:p ~to_pos:q
      in
      let undo (swap, p, q) t =
        if swap then Arrangement.swap_positions t p q
        else Arrangement.relocate t ~from_pos:q ~to_pos:p
      in
      (match Rng.int rng 4 with
      | 0 ->
          let price t =
            if swap then Arrangement.swap_delta t p q
            else Arrangement.relocate_delta t ~from_pos:p ~to_pos:q
          in
          let priced = price !tab in
          check (pair int int) (what ^ ": priced") priced (price !span);
          let r = Arrangement.create ~order:replica nl in
          let saved = Array.copy replica in
          move_replica swap p q;
          let moved = Arrangement.create ~order:replica nl in
          Array.blit saved 0 replica 0 n;
          check (pair int int) (what ^ ": priced as recounted")
            ( Arrangement.density moved - Arrangement.density r,
              Arrangement.sum_of_cuts moved - Arrangement.sum_of_cuts r )
            priced;
          applied := None
      | 1 ->
          let before = Arrangement.cuts (Arrangement.create ~order:replica nl) in
          List.iteri
            (fun k t ->
              let d = Arrangement.density t in
              apply t;
              if Arrangement.density t < d then begin
                drops.(k) <- drops.(k) + 1;
                Array.iteri
                  (fun x c ->
                    if c = d && (x < min p q || x >= max p q) then
                      failf "%s: boundary %d at the old density %d is outside the window" what x d)
                  before;
                Arrangement.check t;
                undo (swap, p, q) t;
                Arrangement.check t;
                apply t
              end)
            [ !tab; !span ];
          move_replica swap p q;
          applied := Some (swap, p, q)
      | 2 -> (
          match !applied with
          | Some ((swap, p, q) as move) ->
              undo move !tab;
              undo move !span;
              if swap then move_replica true p q else move_replica false q p;
              applied := None
          | None -> ())
      | _ ->
          tab := Arrangement.copy !tab;
          span := Arrangement.copy !span;
          applied := None);
      costs (what ^ ", table") !tab;
      costs (what ^ ", span") !span;
      if Rng.int rng 3 = 0 then begin
        reads (what ^ ", table") !tab;
        reads (what ^ ", span") !span;
        check (list (pair int int)) (what ^ ": pending cut changes")
          (Arrangement.Private.pending_diff !tab)
          (Arrangement.Private.pending_diff !span);
        applied := None
      end
    done
  done;
  Array.iteri
    (fun k c ->
      if c = 0 then
        failf "no applied move of the %s kernel lowered the density"
          (if k = 0 then "table" else "span"))
    drops

(* A move applied and undone before the state is read costs one trial
   and writes nothing: the undo finds the move applied and clears the
   mark.  In both kernels, every array of the state (order, positions,
   cuts, spans or prefix masks, and the trial's records) must
   hold, after the undo, what it held right after the move. *)
let test_undo_writes_nothing () =
  let rng = Rng.create ~seed:65 in
  let n = 12 in
  let nl = Netlist.random_nola rng ~elements:n ~nets:36 ~min_pins:2 ~max_pins:5 in
  List.iter
    (fun (kernel, t) ->
      for step = 1 to 200 do
        let p, q = Rng.pair_distinct rng n in
        let swap = Rng.bool rng in
        let before = Arrangement.order t in
        if swap then Arrangement.swap_positions t p q
        else Arrangement.relocate t ~from_pos:p ~to_pos:q;
        let held = List.map Array.copy (Arrangement.Private.arrays t) in
        if swap then Arrangement.swap_positions t p q
        else Arrangement.relocate t ~from_pos:q ~to_pos:p;
        List.iteri
          (fun i a ->
            Alcotest.check
              Alcotest.(array int)
              (Printf.sprintf "%s, step %d: array %d after the undo" kernel step i)
              (List.nth held i) a)
          (Arrangement.Private.arrays t);
        Alcotest.check Alcotest.(array int) "order after the undo" before (Arrangement.order t);
        (* Keep one move in three, so later moves start from new orders. *)
        if Rng.int rng 3 = 0 then Arrangement.swap_positions t p q
      done;
      Arrangement.check t)
    [ ("table", Arrangement.create nl); ("span", Arrangement.Private.create_span nl) ]

(* A snapshot holds the order alone, and its first use rebuilds the
   rest.  In both kernels, copies are taken of a state whose moves have
   been read (so replayed), of one whose last move is still applied,
   and of a copy of such a state, and each entry point makes a copy's
   first call.  The copy must then read as its settled twin (a fresh
   state of the same order and kernel), pass [check] and price and make
   a further move as the twin does.  The reads that need only the order
   ([order], [element_at], [density], [sum_of_cuts], a copy) leave a
   copy's cuts unbuilt, and copying a copy leaves the copied one
   unbuilt. *)
let test_lazy_snapshot () =
  let open Alcotest in
  let rng = Rng.create ~seed:66 in
  let n = 12 in
  let nl = Netlist.random_nola rng ~elements:n ~nets:36 ~min_pins:2 ~max_pins:5 in
  let unbuilt c = Array.length (List.nth (Arrangement.Private.arrays c) 2) = 0 in
  (* [first what c w] makes the first call on the copy [c] and the same
     call on its twin [w]. *)
  let same ty f what c w = check ty what (f w) (f c) in
  let both f _ c w =
    f w;
    f c
  in
  let entries =
    [
      ("element_at", true, same int (fun t -> Arrangement.element_at t 3));
      ("order", true, same (array int) Arrangement.order);
      ("density", true, same int Arrangement.density);
      ("sum_of_cuts", true, same int Arrangement.sum_of_cuts);
      ("copy", true, same (array int) (fun t -> Arrangement.order (Arrangement.copy t)));
      ("position_of", false, same int (fun t -> Arrangement.position_of t 5));
      ("cut", false, same int (fun t -> Arrangement.cut t 4));
      ("cuts", false, same (array int) Arrangement.cuts);
      ("check", false, fun _ c _ -> Arrangement.check c);
      ("pending_diff", false, same (list (pair int int)) Arrangement.Private.pending_diff);
      ("swap_delta", false, same (pair int int) (fun t -> Arrangement.swap_delta t 2 9));
      ("swap_density_delta", false, same int (fun t -> Arrangement.swap_density_delta t 9 2));
      ( "relocate_delta",
        false,
        same (pair int int) (fun t -> Arrangement.relocate_delta t ~from_pos:10 ~to_pos:1) );
      ("swap_positions", false, both (fun t -> Arrangement.swap_positions t 1 7));
      ("swap_elements", false, both (fun t -> Arrangement.swap_elements t 0 11));
      ("relocate", false, both (fun t -> Arrangement.relocate t ~from_pos:2 ~to_pos:8));
      ( "set_order",
        false,
        fun what c w ->
          let o = Rng.permutation rng n in
          both (fun t -> Arrangement.set_order t o) what c w );
    ]
  in
  List.iter
    (fun (kernel, make) ->
      let t = make ~order:(Rng.permutation rng n) nl in
      let move () =
        let p, q = Rng.pair_distinct rng n in
        if Rng.bool rng then Arrangement.swap_positions t p q
        else Arrangement.relocate t ~from_pos:p ~to_pos:q
      in
      let sources =
        [
          ("moved", fun () -> move (); move (); Arrangement.check t; t);
          ("applied", fun () -> move (); t);
          ("a copy of an applied", fun () -> move (); Arrangement.copy t);
        ]
      in
      List.iter
        (fun (source, state) ->
          List.iter
            (fun (entry, order_only, first) ->
              let what = Printf.sprintf "%s, copy of %s, first %s" kernel source entry in
              let src = state () in
              let src_unbuilt = unbuilt src in
              let c = Arrangement.copy src in
              check bool (what ^ ": copy unbuilt") true (unbuilt c);
              check bool (what ^ ": copied copy unbuilt") src_unbuilt (unbuilt src);
              check bool (what ^ ": same kernel") (Arrangement.Private.is_table t)
                (Arrangement.Private.is_table c);
              let w = make ~order:(Arrangement.order src) nl in
              first (what ^ ": first call") c w;
              if order_only then check bool (what ^ ": still unbuilt") true (unbuilt c);
              check int (what ^ ": density") (Arrangement.density w) (Arrangement.density c);
              check int (what ^ ": sum") (Arrangement.sum_of_cuts w) (Arrangement.sum_of_cuts c);
              check (array int) (what ^ ": cuts") (Arrangement.cuts w) (Arrangement.cuts c);
              check (array int) (what ^ ": order") (Arrangement.order w) (Arrangement.order c);
              Arrangement.check c;
              check (pair int int) (what ^ ": next move priced")
                (Arrangement.swap_delta w 0 (n - 1))
                (Arrangement.swap_delta c 0 (n - 1));
              Arrangement.swap_positions w 0 (n - 1);
              Arrangement.swap_positions c 0 (n - 1);
              check (array int) (what ^ ": cuts after the next move") (Arrangement.cuts w)
                (Arrangement.cuts c);
              Arrangement.check c)
            entries)
        sources)
    [
      ("table", fun ~order nl -> Arrangement.create ~order nl);
      ("span", fun ~order nl -> Arrangement.Private.create_span ~order nl);
    ]

let suite =
  [
    case "identity path cuts" test_identity_path;
    case "known density" test_known_density;
    case "multi-pin net spans" test_multi_pin_span;
    case "positions inverse" test_positions_inverse;
    case "create validation" test_create_validation;
    case "swap updates density" test_swap_updates_density;
    case "swap with itself is a no-op" test_swap_self_is_noop;
    case "swap is an involution" test_swap_is_involution;
    case "swap_elements matches swap_positions" test_swap_elements_matches_positions;
    case "copy is independent" test_copy_independent;
    case "relocate forward" test_relocate_forward;
    case "relocate backward" test_relocate_backward;
    case "relocate inverse" test_relocate_inverse;
    case "set_order" test_set_order;
    case "density_of_order" test_density_of_order;
    case "tiny arrangements" test_tiny_arrangements;
    case "move argument validation" test_move_argument_validation;
    case "sum of cuts tracks moves" test_sum_of_cuts_tracks_moves;
    case "parallel nets count separately" test_parallel_nets_count_separately;
    case "random walk consistency (GOLA)" test_walk_gola;
    case "random walk consistency (NOLA)" test_walk_nola;
    case "random walk consistency (paper size)" test_walk_paper_size;
    case "copy holds no trial scratch" test_copy_words;
    case "density branches of a trial" test_density_branches;
    case "trial scratch words" test_scratch_words;
    case "check reads the subset cut table" test_check_reads_table;
    case "table mode holds no per-net arrays" test_table_scratch_words;
    case "table and span kernels agree move by move" test_kernels_agree;
    case "undoing an applied move writes no array" test_undo_writes_nothing;
    case "a snapshot holds the order and rebuilds at its first use" test_lazy_snapshot;
    QCheck_alcotest.to_alcotest prop_density_matches_recompute;
    QCheck_alcotest.to_alcotest prop_density_bounded_by_nets;
    QCheck_alcotest.to_alcotest prop_reversal_preserves_density;
  ]
