(* The effect lattice and its interprocedural inference.

   A primitive effect is a use of a name the determinism policy cares
   about (a wall-clock read, an ambient RNG draw, a mutation of
   module-level state, a blocking syscall).  Extraction (Callgraph)
   records primitive uses per definition; [infer] closes them over the
   call graph bottom-up, so `Portfolio.sweep` carries Blocking_io if
   anything it can reach does.  Everything is an over-approximation:
   an effect attributed to a definition means "some execution path
   through it may perform the effect". *)

type kind = Wallclock | Ambient_random | Global_mutable | Blocking_io

let kind_name = function
  | Wallclock -> "wallclock"
  | Ambient_random -> "ambient-random"
  | Global_mutable -> "global-mutable"
  | Blocking_io -> "blocking-io"

let kind_of_name = function
  | "wallclock" -> Some Wallclock
  | "ambient-random" -> Some Ambient_random
  | "global-mutable" -> Some Global_mutable
  | "blocking-io" -> Some Blocking_io
  | _ -> None

type prim = {
  kind : kind;
  synced : bool;
      (* a Global_mutable performed under Mutex.protect or through
         Atomic: still an effect, but not a data-race candidate *)
  name : string;  (* what fired, e.g. "Unix.gettimeofday" or "incr M.hits" *)
  line : int;
  col : int;
}

(* Effect sets are bitmasks; [unsync_mutable] is a refinement bit that
   implies [global_mutable] (set together by [prim_bits]). *)
type set = int

let empty : set = 0
let wallclock = 1
let ambient_random = 2
let global_mutable = 4
let blocking_io = 8
let unsync_mutable = 16
let mem mask s = s land mask <> 0

let kind_bit = function
  | Wallclock -> wallclock
  | Ambient_random -> ambient_random
  | Global_mutable -> global_mutable
  | Blocking_io -> blocking_io

let prim_bits p =
  match p.kind with
  | Global_mutable ->
      if p.synced then global_mutable
      else global_mutable lor unsync_mutable
  | k -> kind_bit k

(* ----------------------------------------------------------------- *)
(* Classification tables: which fully-resolved names carry which
   intrinsic effect.  Names arrive with any [Stdlib.] prefix already
   stripped. *)

let wallclock_names =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Unix.times" ]

let blocking_channel_names =
  [
    "output_string"; "output_bytes"; "output_char"; "output_value";
    "output_byte"; "output_binary_int"; "flush"; "flush_all"; "open_out";
    "open_out_bin"; "open_out_gen"; "open_in"; "open_in_bin"; "open_in_gen";
    "input_line"; "input_char"; "input_byte"; "really_input";
    "really_input_string"; "read_line"; "read_int"; "print_string";
    "print_bytes"; "print_int"; "print_char"; "print_float"; "print_endline";
    "print_newline"; "prerr_string"; "prerr_bytes"; "prerr_int"; "prerr_char";
    "prerr_float"; "prerr_endline"; "prerr_newline";
  ]

let blocking_unix_names =
  [
    "Unix.write"; "Unix.single_write"; "Unix.write_substring"; "Unix.read";
    "Unix.send"; "Unix.send_substring"; "Unix.recv"; "Unix.connect";
    "Unix.accept"; "Unix.sleep"; "Unix.sleepf"; "Unix.system"; "Unix.waitpid";
    "Thread.delay"; "Printf.printf"; "Printf.eprintf"; "Printf.fprintf";
    "Format.printf"; "Format.eprintf";
  ]

(* Unix.select both parks the domain and observes the passage of wall
   time (its timeout), so it lands in two classes at once. *)
let classify_use name =
  if List.mem name wallclock_names then [ Wallclock ]
  else if name = "Unix.select" then [ Wallclock; Blocking_io ]
  else if
    String.length name > 7 && String.sub name 0 7 = "Random."
    (* any draw from the ambient Stdlib.Random generator, including
       Random.State built from self_init entropy *)
  then [ Ambient_random ]
  else if
    List.mem name blocking_channel_names || List.mem name blocking_unix_names
  then [ Blocking_io ]
  else []

(* Mutators of module-level state: the returned string is the verb
   used in the primitive's display name. *)
let mutator = function
  | ":=" -> Some "assignment to"
  | "incr" -> Some "incr"
  | "decr" -> Some "decr"
  | "Hashtbl.replace" | "Hashtbl.add" | "Hashtbl.remove" | "Hashtbl.reset"
  | "Hashtbl.clear" | "Hashtbl.filter_map_inplace" ->
      Some "Hashtbl mutation of"
  | "Queue.push" | "Queue.add" | "Queue.pop" | "Queue.take" | "Queue.clear"
  | "Queue.transfer" ->
      Some "Queue mutation of"
  | "Stack.push" | "Stack.pop" | "Stack.clear" -> Some "Stack mutation of"
  | "Buffer.add_string" | "Buffer.add_char" | "Buffer.add_bytes"
  | "Buffer.add_substring" | "Buffer.clear" | "Buffer.reset" ->
      Some "Buffer mutation of"
  | "Array.set" | "Array.fill" | "Array.blit" | "Array.unsafe_set" ->
      Some "Array mutation of"
  | "Bytes.set" | "Bytes.fill" | "Bytes.blit" -> Some "Bytes mutation of"
  | _ -> None

(* Atomic writes are mutations of shared state that the memory model
   already orders: Global_mutable, but never unsync. *)
let atomic_mutator = function
  | "Atomic.set" | "Atomic.exchange" | "Atomic.compare_and_set"
  | "Atomic.fetch_and_add" | "Atomic.incr" | "Atomic.decr" ->
      true
  | _ -> false

let sync_wrapper = function "Mutex.protect" -> true | _ -> false

(* ----------------------------------------------------------------- *)
(* Bottom-up closure over the call graph. *)

type node = { n_key : string; n_prims : prim list; n_calls : string list }

type witness = Via_prim of prim | Via_call of string

type info = {
  eff : (string, set) Hashtbl.t;
  wit : (string * int, witness) Hashtbl.t;  (* per (def, single bit) *)
}

let bits = [ wallclock; ambient_random; global_mutable; blocking_io; unsync_mutable ]

let infer nodes =
  let eff = Hashtbl.create 256 in
  let wit = Hashtbl.create 256 in
  let get k = match Hashtbl.find_opt eff k with Some s -> s | None -> empty in
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          let pb = prim_bits p in
          List.iter
            (fun b ->
              if mem b pb && not (mem b (get n.n_key)) then begin
                Hashtbl.replace eff n.n_key (get n.n_key lor b);
                Hashtbl.replace wit (n.n_key, b) (Via_prim p)
              end)
            bits)
        n.n_prims)
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        List.iter
          (fun c ->
            let cs = get c in
            List.iter
              (fun b ->
                if mem b cs && not (mem b (get n.n_key)) then begin
                  Hashtbl.replace eff n.n_key (get n.n_key lor b);
                  Hashtbl.replace wit (n.n_key, b) (Via_call c);
                  changed := true
                end)
              bits)
          n.n_calls)
      nodes
  done;
  { eff; wit }

let effects info key =
  match Hashtbl.find_opt info.eff key with Some s -> s | None -> empty

(* The call chain from [key] down to the primitive witnessing the
   lowest bit of [mask]; [None] when the effect is absent.  Witness
   chains are acyclic by construction (a witness is only ever written
   the first time a bit appears), but guard anyway. *)
let trace info key ~mask =
  match List.find_opt (fun b -> mem b (effects info key) && mem b mask) bits with
  | None -> None
  | Some b ->
      let rec follow seen k =
        if List.mem k seen then None
        else
          match Hashtbl.find_opt info.wit (k, b) with
          | Some (Via_prim p) -> Some ([ k ], p)
          | Some (Via_call c) -> (
              match follow (k :: seen) c with
              | Some (chain, p) -> Some (k :: chain, p)
              | None -> None)
          | None -> None
      in
      follow [] key

(* JSON projection of a primitive for summaries and cache entries. *)
let prim_to_json p =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String (kind_name p.kind));
      ("synced", Obs.Json.Bool p.synced);
      ("name", Obs.Json.String p.name);
      ("line", Obs.Json.Int p.line);
      ("col", Obs.Json.Int p.col);
    ]

let prim_of_json j =
  let str name =
    match Obs.Json.member name j with
    | Some (Obs.Json.String s) -> Some s
    | _ -> None
  in
  let int name = Option.bind (Obs.Json.member name j) Obs.Json.to_int in
  match (str "kind", str "name", int "line", int "col") with
  | Some k, Some name, Some line, Some col -> (
      match kind_of_name k with
      | Some kind ->
          let synced =
            match Obs.Json.member "synced" j with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false
          in
          Some { kind; synced; name; line; col }
      | None -> None)
  | _ -> None
