type result = {
  part_of : int array;
  k : int;
  spanning_nets : int;
}

let is_power_of_two k = k > 0 && k land (k - 1) = 0

let spanning_nets nl part_of =
  let count = ref 0 in
  for j = 0 to Netlist.n_nets nl - 1 do
    let first = ref (-1) and spans = ref false in
    Netlist.iter_pins nl j (fun e ->
        if !first < 0 then first := part_of.(e)
        else if part_of.(e) <> !first then spans := true);
    if !spans then incr count
  done;
  !count

(* Netlist induced on [elements] (a subset of the original's ids):
   pins outside the subset are dropped; nets left with fewer than two
   pins disappear.  Returns the netlist and the local→global map. *)
let induce nl elements =
  let n = Array.length elements in
  let local_of = Hashtbl.create n in
  Array.iteri (fun local global -> Hashtbl.replace local_of global local) elements;
  let nets = ref [] in
  for j = 0 to Netlist.n_nets nl - 1 do
    let pins = ref [] in
    Netlist.iter_pins nl j (fun e ->
        match Hashtbl.find_opt local_of e with
        | Some local -> pins := local :: !pins
        | None -> ());
    match !pins with
    | _ :: _ :: _ -> nets := Array.of_list !pins :: !nets
    | [] | [ _ ] -> ()
  done;
  Netlist.create ~n_elements:n ~pins:(Array.of_list !nets)

let partition rng nl ~k =
  let n = Netlist.n_elements nl in
  if not (is_power_of_two k) then invalid_arg "Kway.partition: k must be a power of two";
  if n > 0 && k > n then invalid_arg "Kway.partition: k exceeds the element count";
  let part_of = Array.make n 0 in
  let rec bisect elements k base =
    if k > 1 then begin
      let induced = induce nl elements in
      let split = Fm.run rng induced in
      let side_a = ref [] and side_b = ref [] in
      Array.iteri
        (fun local global ->
          if Bipartition.side split local then side_b := global :: !side_b
          else side_a := global :: !side_a)
        elements;
      bisect (Array.of_list (List.rev !side_a)) (k / 2) base;
      bisect (Array.of_list (List.rev !side_b)) (k / 2) (base + (k / 2))
    end
    else Array.iter (fun e -> part_of.(e) <- base) elements
  in
  bisect (Array.init n (fun i -> i)) k 0;
  { part_of; k; spanning_nets = spanning_nets nl part_of }

let part_sizes r =
  let sizes = Array.make r.k 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) r.part_of;
  sizes
