(* PCG32 (pcg_state_64 / xsh_rr variant) seeded via SplitMix64.

   The LCG state advances as [state * mult + inc]; output applies the
   xorshift-high + random-rotate permutation to the old state.  The
   stream increment must be odd, which [create] and [split] enforce.

   The two words live in a 16-byte buffer (state at byte 0, increment
   at byte 8), read and written with the bounds-checked 64-bit bytes
   primitives.  A [mutable int64] record field would box every store;
   these loads and stores keep a draw free of allocation. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let multiplier = 6364136223846793005L

(* SplitMix64 step: expands a weak seed into well-mixed 64-bit words. *)
let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let make ~state ~inc =
  let t = Bytes.create 16 in
  set64 t 0 state;
  set64 t 8 inc;
  t

let[@inline] advance t = set64 t 0 Int64.(add (mul (get64 t 0) multiplier) (get64 t 8))

(* The next 32 output bits as an unsigned OCaml int.  The rotation is
   done on the 32-bit value in a 63-bit int: for [rot = 0] the left
   half shifts out of the mask entirely. *)
let[@inline] next t =
  let old = get64 t 0 in
  advance t;
  let x =
    Int64.(to_int (shift_right_logical (logxor (shift_right_logical old 18) old) 27))
    land 0xFFFFFFFF
  in
  let rot = Int64.(to_int (shift_right_logical old 59)) in
  ((x lsr rot) lor (x lsl (32 - rot))) land 0xFFFFFFFF

let bits32 t = Int32.of_int (next t)

let of_words ~state_word ~inc_word =
  let t = make ~state:0L ~inc:(Int64.logor (Int64.shift_left inc_word 1) 1L) in
  advance t;
  set64 t 0 (Int64.add (get64 t 0) state_word);
  advance t;
  t

let create ~seed =
  let s0 = splitmix64 (Int64.of_int seed) in
  let s1 = splitmix64 s0 in
  of_words ~state_word:s0 ~inc_word:s1

(* Each word is built from two draws, low half first: the order every
   recorded split stream (checkpoints, the known-answer test) used. *)
let split t =
  let word () =
    let lo = next t in
    let hi = next t in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
  in
  let w0 = word () in
  let w1 = word () in
  of_words ~state_word:(splitmix64 w0) ~inc_word:(splitmix64 w1)

let copy = Bytes.copy

(* Serialized form: "pcg32:<state>:<inc>", each word as exactly 16
   lowercase hex digits.  The format is deliberately rigid so a
   truncated or hand-mangled checkpoint is rejected instead of seeding
   a garbage stream. *)

let to_state t = Printf.sprintf "pcg32:%016Lx:%016Lx" (get64 t 0) (get64 t 8)

let of_state s =
  let fail msg = Error (Printf.sprintf "Rng.of_state: %s in %S" msg s) in
  let word w =
    if String.length w <> 16 then None
    else if
      String.for_all
        (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
        w
    then
      (* Hex literals wrap into the full unsigned 64-bit range. *)
      Some (Int64.of_string ("0x" ^ w))
    else None
  in
  match String.split_on_char ':' s with
  | [ "pcg32"; sw; iw ] -> (
      match (word sw, word iw) with
      | Some state, Some inc ->
          if Int64.logand inc 1L = 1L then Ok (make ~state ~inc)
          else fail "stream increment is even"
      | _ -> fail "expected two 16-digit lowercase hex words")
  | _ -> fail "expected \"pcg32:<state>:<inc>\""

(* Rejection sampling over the 2^32 draws: a draw [v] is kept iff its
   whole bucket [v - v mod bound, v - v mod bound + bound) fits below
   2^32, which is exactly [v < 2^32 - 2^32 mod bound] and costs no
   second division.  A top-level loop, so a call allocates no closure. *)
let rec below t bound =
  let v = next t in
  let r = v mod bound in
  if v - r + bound <= 0x100000000 then r else below t bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound > 0xFFFFFFFF then invalid_arg "Rng.int: bound exceeds 32 bits";
  below t bound

let int_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_range: lo > hi";
  lo + int t (hi - lo + 1)

let unit_float t = float_of_int (next t) /. 4294967296.

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  unit_float t *. bound

let bool t = next t land 1 = 1

let bernoulli t p = if p <= 0. then false else if p >= 1. then true else unit_float t < p

let gaussian t ~mu ~sigma =
  (* Box-Muller; u1 must be nonzero for the log. *)
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = unit_float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let exponential t ~lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: lambda must be positive";
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. lambda

let pair_distinct t n =
  if n < 2 then invalid_arg "Rng.pair_distinct: need n >= 2";
  let a = int t n in
  let b = int t (n - 1) in
  let b = if b >= a then b + 1 else b in
  (a, b)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

(* The displaced-slot table: open addressing with linear probing over
   [cap] cells, a power of two, each two words (slot, value) with slot
   [-1] for an empty cell.  A slot is its own hash: the slots stored are
   uniform draws, so their low bits spread evenly.  [find] returns the
   index of the slot's cell, or of the empty cell it would take. *)
let[@inline] find table mask slot =
  let h = ref (slot land mask) in
  while
    let key = table.(2 * !h) in
    key <> slot && key >= 0
  do
    h := (!h + 1) land mask
  done;
  2 * !h

let[@inline] value table cell slot = if table.(cell) < 0 then slot else table.(cell + 1)

(* The same for a cell per slot, indexed by the slot itself. *)
let[@inline] own a slot =
  let v = a.(slot) in
  if v < 0 then slot else v

(* Partial Fisher–Yates over the virtual index array [a.(i) = i].  Step
   [i] swaps [a.(i)] with [a.(j)], [j] drawn from [i, n-1]; [a.(i)] is
   final from then on, so it goes straight to the output and only
   [a.(j)] is stored.  That is one store per step, so a table of at
   least [2 k] cells stays at most half full.  When that table would
   have [n] cells or more, every slot gets a cell of its own: [a.(j)]
   sits at index [j] of an [n]-word array, [-1] while it is still [j],
   with no key and no probe. *)
let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let cap = ref 1 in
  while !cap < min (2 * k) n do
    cap := 2 * !cap
  done;
  let out = Array.make k 0 in
  if !cap >= n then begin
    let a = Array.make n (-1) in
    for i = 0 to k - 1 do
      let j = int_range t i (n - 1) in
      let ai = own a i in
      out.(i) <- own a j;
      a.(j) <- ai
    done
  end
  else begin
    let mask = !cap - 1 in
    let table = Array.make (2 * !cap) (-1) in
    for i = 0 to k - 1 do
      let j = int_range t i (n - 1) in
      let ai = value table (find table mask i) i in
      let cj = find table mask j in
      out.(i) <- value table cj j;
      table.(cj) <- j;
      table.(cj + 1) <- ai
    done
  end;
  out

(* A non-finite weight or total would make [target] infinite (or NaN),
   which no partial sum exceeds, so the scan would fall through to the
   last index whatever the weights say. *)
let categorical t weights =
  let total = Array.fold_left (fun acc w ->
      if w < 0. || Float.is_nan w then invalid_arg "Rng.categorical: negative weight"
      else if w = Float.infinity then invalid_arg "Rng.categorical: infinite weight"
      else acc +. w)
      0. weights
  in
  if total = Float.infinity then invalid_arg "Rng.categorical: weights sum past max_float";
  if total <= 0. then invalid_arg "Rng.categorical: weights sum to zero";
  let target = unit_float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
