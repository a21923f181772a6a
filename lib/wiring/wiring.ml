type net_ends = { x1 : int; y1 : int; x2 : int; y2 : int }

(* Horizontal edge (x, y)-(x+1, y) lives at h_usage.(y*(width-1) + x);
   vertical edge (x, y)-(x, y+1) at v_usage.(y*width + x). *)
type t = {
  width : int;
  height : int;
  ends : net_ends array;
  orient : bool array; (* true = HV (horizontal first) *)
  h_usage : int array;
  v_usage : int array;
  mutable cost : int;
}

let width t = t.width
let height t = t.height
let n_nets t = Array.length t.ends
let cost t = t.cost
let orientation t j = if t.orient.(j) then `HV else `VH
let h_usage t ~x ~y = t.h_usage.((y * (t.width - 1)) + x)
let v_usage t ~x ~y = t.v_usage.((y * t.width) + x)

let degenerate e = e.x1 = e.x2 || e.y1 = e.y2

(* Iterate the edges of net j's current L-path.  HV runs along y1 then
   up/down at x2; VH runs along x1 then across at y2. *)
let iter_path t j ~horizontal ~vertical =
  let e = t.ends.(j) in
  let bend_x, bend_y = if t.orient.(j) then (e.x2, e.y1) else (e.x1, e.y2) in
  let hx_lo = min e.x1 e.x2 and hx_hi = max e.x1 e.x2 in
  let hy = if t.orient.(j) then e.y1 else e.y2 in
  for x = hx_lo to hx_hi - 1 do
    horizontal x hy
  done;
  let vy_lo = min e.y1 e.y2 and vy_hi = max e.y1 e.y2 in
  let vx = bend_x in
  ignore bend_y;
  for y = vy_lo to vy_hi - 1 do
    vertical vx y
  done

let add_path t j =
  iter_path t j
    ~horizontal:(fun x y ->
      let i = (y * (t.width - 1)) + x in
      t.cost <- t.cost + (2 * t.h_usage.(i)) + 1;
      t.h_usage.(i) <- t.h_usage.(i) + 1)
    ~vertical:(fun x y ->
      let i = (y * t.width) + x in
      t.cost <- t.cost + (2 * t.v_usage.(i)) + 1;
      t.v_usage.(i) <- t.v_usage.(i) + 1)

let remove_path t j =
  iter_path t j
    ~horizontal:(fun x y ->
      let i = (y * (t.width - 1)) + x in
      t.cost <- t.cost - (2 * t.h_usage.(i)) + 1;
      t.h_usage.(i) <- t.h_usage.(i) - 1)
    ~vertical:(fun x y ->
      let i = (y * t.width) + x in
      t.cost <- t.cost - (2 * t.v_usage.(i)) + 1;
      t.v_usage.(i) <- t.v_usage.(i) - 1)

let create ~width ~height ends =
  if width < 2 || height < 2 then invalid_arg "Wiring.create: grid must be at least 2x2";
  Array.iteri
    (fun j e ->
      if
        e.x1 < 0 || e.x1 >= width || e.x2 < 0 || e.x2 >= width || e.y1 < 0
        || e.y1 >= height || e.y2 < 0 || e.y2 >= height
      then invalid_arg (Printf.sprintf "Wiring.create: net %d endpoint off grid" j);
      if e.x1 = e.x2 && e.y1 = e.y2 then
        invalid_arg (Printf.sprintf "Wiring.create: net %d endpoints coincide" j))
    ends;
  let t =
    {
      width;
      height;
      ends = Array.copy ends;
      orient = Array.make (Array.length ends) true;
      h_usage = Array.make ((width - 1) * height) 0;
      v_usage = Array.make (width * (height - 1)) 0;
      cost = 0;
    }
  in
  for j = 0 to Array.length ends - 1 do
    add_path t j
  done;
  t

let random_instance rng ~width ~height ~nets =
  Array.init nets (fun _ ->
      let x1 = Rng.int rng width and y1 = Rng.int rng height in
      let rec other () =
        let x2 = Rng.int rng width and y2 = Rng.int rng height in
        if x2 = x1 && y2 = y1 then other () else (x2, y2)
      in
      let x2, y2 = other () in
      { x1; y1; x2; y2 })

let flip t j =
  if not (degenerate t.ends.(j)) then begin
    remove_path t j;
    t.orient.(j) <- not t.orient.(j);
    add_path t j
  end

let copy t =
  {
    t with
    orient = Array.copy t.orient;
    h_usage = Array.copy t.h_usage;
    v_usage = Array.copy t.v_usage;
  }

let max_usage t =
  let m = ref 0 in
  Array.iter (fun u -> if u > !m then m := u) t.h_usage;
  Array.iter (fun u -> if u > !m then m := u) t.v_usage;
  !m

let overflow t ~capacity =
  let acc = ref 0 in
  let count u = if u > capacity then acc := !acc + (u - capacity) in
  Array.iter count t.h_usage;
  Array.iter count t.v_usage;
  !acc

let check t =
  let fresh = copy t in
  Array.fill fresh.h_usage 0 (Array.length fresh.h_usage) 0;
  Array.fill fresh.v_usage 0 (Array.length fresh.v_usage) 0;
  fresh.cost <- 0;
  for j = 0 to n_nets fresh - 1 do
    add_path fresh j
  done;
  if fresh.cost <> t.cost then failwith "Wiring.check: stale cost";
  if fresh.h_usage <> t.h_usage then failwith "Wiring.check: stale horizontal usage";
  if fresh.v_usage <> t.v_usage then failwith "Wiring.check: stale vertical usage"

let greedy_pass t =
  let flips = ref 0 in
  for j = 0 to n_nets t - 1 do
    if not (degenerate t.ends.(j)) then begin
      let before = t.cost in
      flip t j;
      if t.cost < before then incr flips else flip t j
    end
  done;
  !flips

let greedy_fixpoint t =
  let passes = ref 0 in
  while !passes < 50 && greedy_pass t > 0 do
    incr passes
  done;
  !passes

module Problem = struct
  type state = t
  type move = int

  let cost state = float_of_int state.cost

  let random_move rng state =
    let n = n_nets state in
    let rec draw attempts =
      let j = Rng.int rng n in
      (* A degenerate net's flip is a no-op; skip it unless the
         instance is all-degenerate. *)
      if degenerate state.ends.(j) && attempts < 64 then draw (attempts + 1) else j
    in
    draw 0

  let apply state j = flip state j
  let revert state j = flip state j
  let copy = copy

  let moves state =
    Seq.init (n_nets state) (fun j -> j)
    |> Seq.filter (fun j -> not (degenerate state.ends.(j)))
end
