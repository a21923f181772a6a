(* Fiduccia-Mattheyses.  Gains live in [-D, D] where D is the maximum
   element degree, so a doubly-linked bucket array gives O(1)
   pick/remove/reinsert.  Each pass moves every element at most once
   (locking it), tracks the cut after each move, rolls back to the best
   prefix, and repeats while passes improve.

   FM gain of element e: over its incident nets, +1 for each net where
   e is the only pin on its own side (the move uncuts it), -1 for each
   net entirely on e's side (the move cuts it). *)

(* Doubly-linked gain buckets over element ids. *)
module Buckets = struct
  type t = {
    offset : int; (* gain g lives at index g + offset *)
    head : int array; (* bucket -> first element or -1 *)
    prev : int array; (* element -> element or -1 *)
    next : int array;
    gain_of : int array;
    present : bool array;
    mutable top : int; (* highest non-empty bucket index, or -1 *)
  }

  let create ~n ~max_gain =
    {
      offset = max_gain;
      head = Array.make ((2 * max_gain) + 1) (-1);
      prev = Array.make n (-1);
      next = Array.make n (-1);
      gain_of = Array.make n 0;
      present = Array.make n false;
      top = -1;
    }

  let insert t e gain =
    let b = gain + t.offset in
    t.gain_of.(e) <- gain;
    t.present.(e) <- true;
    t.prev.(e) <- -1;
    t.next.(e) <- t.head.(b);
    if t.head.(b) >= 0 then t.prev.(t.head.(b)) <- e;
    t.head.(b) <- e;
    if b > t.top then t.top <- b

  let remove t e =
    let b = t.gain_of.(e) + t.offset in
    t.present.(e) <- false;
    if t.prev.(e) >= 0 then t.next.(t.prev.(e)) <- t.next.(e) else t.head.(b) <- t.next.(e);
    if t.next.(e) >= 0 then t.prev.(t.next.(e)) <- t.prev.(e);
    while t.top >= 0 && t.head.(t.top) < 0 do
      t.top <- t.top - 1
    done

  let update t e gain =
    if t.present.(e) then begin
      remove t e;
      insert t e gain
    end

  let best t = if t.top < 0 then None else Some (t.head.(t.top), t.top - t.offset)
  let mem t e = t.present.(e)
end

let gain part e =
  let nl = Bipartition.netlist part in
  let on_b = Bipartition.side part e in
  let g = ref 0 in
  Netlist.iter_incident nl e (fun j ->
      let size = Netlist.net_size nl j in
      let b = Bipartition.net_pins_b part j in
      let from_count = if on_b then b else size - b in
      if from_count = 1 then incr g else if from_count = size then decr g);
  !g

(* Both side sizes stay within one of each other: as tight as parity
   allows. *)
let max_imbalance = 1

let one_pass part =
  let nl = Bipartition.netlist part in
  let n = Netlist.n_elements nl in
  if n = 0 then false
  else begin
    let max_degree = ref 1 in
    for e = 0 to n - 1 do
      if Netlist.degree nl e > !max_degree then max_degree := Netlist.degree nl e
    done;
    (* one bucket structure per side *)
    let bucket_a = Buckets.create ~n ~max_gain:!max_degree in
    let bucket_b = Buckets.create ~n ~max_gain:!max_degree in
    let bucket_for e = if Bipartition.side part e then bucket_b else bucket_a in
    for e = 0 to n - 1 do
      Buckets.insert (bucket_for e) e (gain part e)
    done;
    let initial_cut = Bipartition.cut part in
    let moved = ref [] in
    let best_cut = ref initial_cut and best_len = ref 0 and len = ref 0 in
    let stamp = Array.make n (-1) in
    let continue_pass = ref true in
    while !continue_pass do
      let n_b = Bipartition.size_b part in
      let n_a = n - n_b in
      (* A single-element move swings the imbalance by 2, so the pass
         must tolerate [max_imbalance + 1] transiently; only prefixes
         whose imbalance is within the bound are committed (below). *)
      let ok_from_a = abs (n_a - 1 - (n_b + 1)) <= max_imbalance + 1 in
      let ok_from_b = abs (n_a + 1 - (n_b - 1)) <= max_imbalance + 1 in
      let candidate =
        match
          ( (if ok_from_a then Buckets.best bucket_a else None),
            if ok_from_b then Buckets.best bucket_b else None )
        with
        | None, None -> None
        | Some (e, g), None | None, Some (e, g) -> Some (e, g)
        | Some (ea, ga), Some (eb, gb) ->
            if ga > gb then Some (ea, ga)
            else if gb > ga then Some (eb, gb)
            else if n_a >= n_b then Some (ea, ga) (* tie: drain the larger side *)
            else Some (eb, gb)
      in
      match candidate with
      | None -> continue_pass := false
      | Some (e, _) ->
          Buckets.remove (bucket_for e) e;
          Bipartition.toggle part e;
          moved := e :: !moved;
          incr len;
          let cut_now = Bipartition.cut part in
          if cut_now < !best_cut && Bipartition.imbalance part <= max_imbalance then begin
            best_cut := cut_now;
            best_len := !len
          end;
          (* Re-gain the unlocked elements sharing a net with e. *)
          Netlist.iter_incident nl e (fun j ->
              Netlist.iter_pins nl j (fun x ->
                  if x <> e && stamp.(x) <> !len then begin
                    stamp.(x) <- !len;
                    if Buckets.mem bucket_a x then Buckets.update bucket_a x (gain part x)
                    else if Buckets.mem bucket_b x then
                      Buckets.update bucket_b x (gain part x)
                  end))
    done;
    (* Roll back the moves beyond the best prefix. *)
    let to_undo = !len - !best_len in
    let rec undo k = function
      | [] -> ()
      | e :: rest ->
          if k > 0 then begin
            Bipartition.toggle part e;
            undo (k - 1) rest
          end
    in
    undo to_undo !moved;
    !best_cut < initial_cut
  end

let refine part =
  if Bipartition.imbalance part > max_imbalance then
    invalid_arg "Fm.refine: initial imbalance exceeds the bound";
  let passes = ref 0 in
  while one_pass part do
    incr passes
  done;
  !passes

let run rng netlist =
  let part = Bipartition.random_balanced rng netlist in
  ignore (refine part);
  part
