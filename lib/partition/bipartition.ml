(* Invariants:
   - pins_b.(j) = number of net j's pins on side B;
   - a net is cut iff 0 < pins_b.(j) < net size;
   - [cut] counts cut nets; [n_b] counts side-B elements. *)

type t = {
  netlist : Netlist.t;
  sides : bool array; (* true = side B *)
  pins_b : int array;
  mutable cut : int;
  mutable n_b : int;
}

let netlist t = t.netlist
let side t e = t.sides.(e)
let cut t = t.cut
let net_pins_b t j = t.pins_b.(j)
let size_b t = t.n_b

let imbalance t =
  let n = Netlist.n_elements t.netlist in
  abs (n - t.n_b - t.n_b)

let is_cut t j =
  let b = t.pins_b.(j) in
  b > 0 && b < Netlist.net_size t.netlist j

let recompute t =
  Array.fill t.pins_b 0 (Array.length t.pins_b) 0;
  t.n_b <- 0;
  Array.iter (fun b -> if b then t.n_b <- t.n_b + 1) t.sides;
  for j = 0 to Netlist.n_nets t.netlist - 1 do
    Netlist.iter_pins t.netlist j (fun e ->
        if t.sides.(e) then t.pins_b.(j) <- t.pins_b.(j) + 1)
  done;
  t.cut <- 0;
  for j = 0 to Netlist.n_nets t.netlist - 1 do
    if is_cut t j then t.cut <- t.cut + 1
  done

let create ?sides netlist =
  let n = Netlist.n_elements netlist in
  let sides =
    match sides with
    | None -> Array.init n (fun e -> e >= (n + 1) / 2)
    | Some s ->
        if Array.length s <> n then
          invalid_arg "Bipartition.create: sides length mismatch";
        Array.copy s
  in
  let t =
    { netlist; sides; pins_b = Array.make (Netlist.n_nets netlist) 0; cut = 0; n_b = 0 }
  in
  recompute t;
  t

let random_balanced rng netlist =
  let n = Netlist.n_elements netlist in
  let sides = Array.make n false in
  let chosen = Rng.sample_without_replacement rng ~k:(n / 2) ~n in
  Array.iter (fun e -> sides.(e) <- true) chosen;
  create ~sides netlist

let copy t =
  { t with sides = Array.copy t.sides; pins_b = Array.copy t.pins_b }

let toggle t e =
  let to_b = not t.sides.(e) in
  Netlist.iter_incident t.netlist e (fun j ->
      let was_cut = is_cut t j in
      t.pins_b.(j) <- (t.pins_b.(j) + if to_b then 1 else -1);
      let now_cut = is_cut t j in
      if was_cut && not now_cut then t.cut <- t.cut - 1
      else if (not was_cut) && now_cut then t.cut <- t.cut + 1);
  t.sides.(e) <- to_b;
  t.n_b <- (t.n_b + if to_b then 1 else -1)

let swap t a b =
  if t.sides.(a) <> t.sides.(b) then begin
    toggle t a;
    toggle t b
  end

let check t =
  let fresh = copy t in
  recompute fresh;
  if fresh.cut <> t.cut then failwith "Bipartition.check: stale cut";
  if fresh.n_b <> t.n_b then failwith "Bipartition.check: stale side count";
  Array.iteri
    (fun j c -> if t.pins_b.(j) <> c then failwith "Bipartition.check: stale pin count")
    fresh.pins_b
