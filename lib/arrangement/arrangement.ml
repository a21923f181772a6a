(* Invariants maintained by every operation:
   - elem_at and pos_of are inverse permutations;
   - span mode: net_lo.(j) / net_hi.(j) are the min/max positions of
     net j's pins;
   - table mode: pre.(k) is the bit mask of the elements at positions
     < k, for 0 <= k <= n;
   - cuts.(p) = #{ j | net_lo.(j) <= p < net_hi.(j) } for 0 <= p < n-1,
     the cut of the set pre.(p + 1) in table mode;
   - density = max of cuts (0 if there are no boundaries);
   - at_density = #{ p | cuts.(p) = density };
   - sum_cuts = sum of cuts;
   - span mode: window is the pending trial's record, +1 at each
     touched net's new lo and old hi, -1 at its old lo and new hi,
     wherever that endpoint moves, and zero elsewhere.
   They describe the arrangement as it stands unless [applied] is set:
   then the arrangement is the one the pending trial's move leads to,
   and the fields above still hold the one before it (see [settle]).
   A snapshot ([copy]) holds only elem_at and the three scalars, with
   [applied] set and [pend_kind = stale]: its first use rebuilds the
   rest from the order. *)

type t = {
  netlist : Netlist.t;
  nv : Netlist.view; (* the netlist's flat arrays, walked by the moves *)
  table_mode : bool; (* the kernel: prefix masks, else net spans *)
  elem_at : int array;
  (* The arrays the order fixes: empty in a snapshot until its first use
     allocates them ([alloc_derived]). *)
  mutable pos_of : int array;
  mutable cuts : int array; (* length max 0 (n-1) *)
  mutable density : int;
  mutable at_density : int;
  mutable sum_cuts : int;
  mutable net_lo : int array; (* span mode, else empty *)
  mutable net_hi : int array;
  mutable pre : int array; (* table mode, length n + 1; else empty *)
  mutable table : Bytes.t; (* the netlist's [cut_table], fetched by the first trial *)
  (* Trial scratch (see the move kernel below), allocated by a state's
     first trial ([alloc_scratch]) and never copied; table mode
     allocates only [pend_cut].  [net_mark] / [touched] de-duplicate the
     nets a move touches.  A trial records, without committing, the
     window's boundaries at the density ([pend_at]) and either the new
     cut of every boundary in its window ([pend_cut], table mode, dense,
     indexed by boundary) or the moved endpoints of the touched nets
     ([window], span mode, a difference array) with their new spans
     ([pend_lo] / [pend_hi], indexed like [touched]).  A move marks its
     trial [applied]; the next use of the state replays the recording,
     which leaves the inverse move's trial in its place, unless that use
     is the inverse move, which only clears the mark.  [set_order]
     invalidates the recording via [pend_kind]. *)
  mutable net_mark : int array; (* length n_nets *)
  mutable mark : int;
  mutable touched : int array; (* capacity n_nets *)
  mutable n_touched : int;
  mutable window : int array; (* length n; the pending record, see the invariants *)
  mutable pend_cut : int array; (* table mode, length max 0 (n-1) *)
  mutable pend_lo : int array; (* capacity n_nets; new span of touched.(i) *)
  mutable pend_hi : int array;
  mutable pend_kind : int; (* 0 = none, 1 = swap, 2 = relocate, [stale] = snapshot *)
  mutable pend_a : int; (* swap: min position; relocate: from_pos *)
  mutable pend_b : int; (* swap: max position; relocate: to_pos *)
  mutable pend_density : int;
  mutable pend_at : int; (* window boundaries whose cut is the density *)
  mutable pend_out : int; (* on a density drop: boundaries outside the window at the new one *)
  mutable pend_sum : int;
  mutable applied : bool; (* the pending trial's move is made, not yet replayed *)
}

let size t = Array.length t.elem_at
let netlist t = t.netlist

let is_permutation n a =
  Array.length a = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun x ->
      if x < 0 || x >= n || seen.(x) then false
      else (
        seen.(x) <- true;
        true))
    a

let net_span t j =
  let lo = ref max_int and hi = ref (-1) in
  for k = t.nv.pin_start.(j) to t.nv.pin_start.(j + 1) - 1 do
    let p = t.pos_of.(t.nv.pins.(k)) in
    if p < !lo then lo := p;
    if p > !hi then hi := p
  done;
  (!lo, !hi)

(* Netlists of at most [table_max_elements] elements (and fewer than
   2^16 nets, so a cut fits a uint16 cell) price a move from the
   netlist's table of subset cuts: the cut after position x depends
   only on the set of elements at positions <= x.  Larger ones track
   per-net spans. *)
let table_max_elements = 16

(* Rebuild [pre.(w0 + 1) .. pre.(w1)] from [pre.(w0)] and [elem_at],
   each mask from the one before: [recompute_all] only.  A move's
   [replay] derives each mask from its own old value instead. *)
let fill_prefixes t w0 w1 =
  for x = w0 to w1 - 1 do
    t.pre.(x + 1) <- t.pre.(x) lor (1 lsl t.elem_at.(x))
  done

(* The from-scratch pass, shared by [recompute_all] and
   [density_of_order] and by no move: every net adds +1 at its leftmost
   pin and -1 at its rightmost to the zeroed [cuts], and a running sum
   turns those marks into the cuts.  Each span is also stored in
   [net_lo] / [net_hi] unless they are empty (table mode,
   [density_of_order]). *)
let cuts_from_scratch (nv : Netlist.view) pos_of cuts net_lo net_hi =
  let nb = Array.length cuts and spans = Array.length net_lo > 0 in
  for j = 0 to Array.length nv.pin_start - 2 do
    let lo = ref max_int and hi = ref (-1) in
    for k = nv.pin_start.(j) to nv.pin_start.(j + 1) - 1 do
      let p = pos_of.(nv.pins.(k)) in
      if p < !lo then lo := p;
      if p > !hi then hi := p
    done;
    if spans then begin
      net_lo.(j) <- !lo;
      net_hi.(j) <- !hi
    end;
    cuts.(!lo) <- cuts.(!lo) + 1;
    if !hi < nb then cuts.(!hi) <- cuts.(!hi) - 1
  done;
  for p = 1 to nb - 1 do
    cuts.(p) <- cuts.(p) + cuts.(p - 1)
  done

(* [pend_kind] of a snapshot, whose first use rebuilds it ([settle]). *)
let stale = 3

(* Everything from [elem_at]: [pos_of], the cuts, the spans or masks and
   the scalars.  Drops the pending trial and its record. *)
let recompute_all t =
  t.pend_kind <- 0;
  t.applied <- false;
  Array.fill t.window 0 (Array.length t.window) 0;
  t.n_touched <- 0;
  Array.iteri (fun p e -> t.pos_of.(e) <- p) t.elem_at;
  Array.fill t.cuts 0 (Array.length t.cuts) 0;
  if t.table_mode then fill_prefixes t 0 (size t);
  cuts_from_scratch t.nv t.pos_of t.cuts t.net_lo t.net_hi;
  let d = Array.fold_left max 0 t.cuts in
  t.density <- d;
  t.at_density <- Array.fold_left (fun c v -> c + Bool.to_int (v = d)) 0 t.cuts;
  t.sum_cuts <- Array.fold_left ( + ) 0 t.cuts

let alloc_derived t =
  let n = size t in
  t.pos_of <- Array.make n 0;
  t.cuts <- Array.make (max 0 (n - 1)) 0;
  if t.table_mode then t.pre <- Array.make (n + 1) 0
  else begin
    let m = Netlist.n_nets t.netlist in
    t.net_lo <- Array.make m 0;
    t.net_hi <- Array.make m 0
  end

let create_on ~kernel ?order netlist =
  let n = Netlist.n_elements netlist in
  let elem_at =
    match order with
    | None -> Array.init n (fun i -> i)
    | Some o ->
        if not (is_permutation n o) then
          invalid_arg "Arrangement.create: order is not a permutation";
        Array.copy o
  in
  let m = Netlist.n_nets netlist in
  let t =
    {
      netlist;
      nv = Netlist.view netlist;
      table_mode = kernel = `Table && n <= table_max_elements && m <= 0xffff;
      elem_at;
      pos_of = [||];
      cuts = [||];
      density = 0;
      at_density = 0;
      sum_cuts = 0;
      net_lo = [||];
      net_hi = [||];
      pre = [||];
      table = Bytes.empty;
      net_mark = [||];
      mark = 0;
      touched = [||];
      n_touched = 0;
      window = [||];
      pend_cut = [||];
      pend_lo = [||];
      pend_hi = [||];
      pend_kind = 0;
      pend_a = 0;
      pend_b = 0;
      pend_density = 0;
      pend_at = 0;
      pend_out = 0;
      pend_sum = 0;
      applied = false;
    }
  in
  alloc_derived t;
  recompute_all t;
  t

let create ?order netlist = create_on ~kernel:`Table ?order netlist

let random rng netlist =
  create ~order:(Rng.permutation rng (Netlist.n_elements netlist)) netlist

let alloc_scratch t =
  let n = size t and m = Netlist.n_nets t.netlist in
  if t.table_mode then begin
    t.pend_cut <- Array.make (max 0 (n - 1)) 0;
    t.table <- Netlist.cut_table t.netlist
  end
  else begin
    t.net_mark <- Array.make m 0;
    t.mark <- 0;
    t.touched <- Array.make m 0;
    t.window <- Array.make n 0;
    t.pend_lo <- Array.make m 0;
    t.pend_hi <- Array.make m 0
  end

let[@inline] push t j =
  t.touched.(t.n_touched) <- j;
  t.n_touched <- t.n_touched + 1

(* {1 The move kernel}

   A swap or relocate moves elements only inside its window [w0, w1]
   (the two swapped positions, or the shift range), so every boundary
   outside [w0, w1) keeps its cut: each side of it holds the same
   elements.  A trial
   1. clears the last trial's record from [window], at its touched
      nets' old and new ends ([clear_record]), and computes each
      touched net's new span;
   2. adds each endpoint that moves to the difference array [window]
      (+1 at the new lo and the old hi, -1 at the old lo and the new
      hi) and the change of the net's length to [pend_sum], the sum of
      the cut changes ([record_span]); every endpoint that moves lies
      inside [w0, w1];
   3. sweeps [w0, w1) once without a store: the running sum of
      [window] added to each old cut gives the window's max cut after
      the move, and locals count its boundaries at the density;
   4. resolves the new density from those two values and the count of
      boundaries at the density, or, when every one of them lies in the
      window and drops, from a scan of the cuts outside the window
      ([resolve]).
   A swap thus costs O(incident pins + |p - q|), and O(n) in that rare
   fallback.  In table mode steps 1-3 are one sweep that reads each
   window boundary's new cut from the table of subset cuts and records
   it in [pend_cut] ([table_trial]); step 4 is shared.  A commit
   replays the recording ([replay]), the one writer of [cuts], which
   leaves the inverse move's trial pending.
   [swap_positions] and [relocate] price their move unless the pending
   trial is theirs, and mark it [applied] without replaying it; the
   state's next use replays it ([settle]), unless that use is the
   inverse move, which only clears the mark.  So a rejected move costs
   one trial, and an accepted one a trial and a replay.

   The loops below read the netlist's flat arrays directly rather than
   through [Netlist.iter_pins] / [iter_incident]: a closure passed
   across a module boundary is called, not inlined, once per pin.  Min,
   max and counts on the hot loops take no branch on the data. *)

let[@inline] bmin a b =
  let d = b - a in
  a + (d land (d asr (Sys.int_size - 1)))

let[@inline] bmax a b =
  let d = b - a in
  a + (d land lnot (d asr (Sys.int_size - 1)))

(* The last trial's record lies at its touched nets' old and new ends,
   whether or not it was replayed since: a replay swaps the two. *)
let clear_record t =
  let window = t.window in
  for i = 0 to t.n_touched - 1 do
    let j = t.touched.(i) in
    window.(t.net_lo.(j)) <- 0;
    window.(t.net_hi.(j)) <- 0;
    window.(t.pend_lo.(i)) <- 0;
    window.(t.pend_hi.(i)) <- 0
  done;
  t.n_touched <- 0;
  t.pend_sum <- 0

let[@inline] record_span t i lo' hi' =
  let j = t.touched.(i) in
  let lo = t.net_lo.(j) and hi = t.net_hi.(j) in
  t.pend_lo.(i) <- lo';
  t.pend_hi.(i) <- hi';
  t.pend_sum <- t.pend_sum + (hi' - lo') - (hi - lo);
  let window = t.window in
  if lo' <> lo then begin
    window.(lo') <- window.(lo') + 1;
    window.(lo) <- window.(lo) - 1
  end;
  if hi' <> hi then begin
    window.(hi') <- window.(hi') - 1;
    window.(hi) <- window.(hi) + 1
  end

(* Touched net [i] is net [j]: its new span from its pins' [pos_of],
   kept in locals rather than returned as a pair. *)
let[@inline] rescan t i j =
  let nv = t.nv and pos_of = t.pos_of in
  let lo = ref max_int and hi = ref (-1) in
  for k = nv.pin_start.(j) to nv.pin_start.(j + 1) - 1 do
    let p = pos_of.(nv.pins.(k)) in
    lo := bmin !lo p;
    hi := bmax !hi p
  done;
  record_span t i !lo !hi

(* Step 4, from the window's max cut after the move [top] and [win],
   the window's boundaries whose cut is the density [d].  Every
   boundary outside the window keeps its cut, which is at most [d].  So
   the new density is
   - [top] when [top >= d];
   - else [d] when [at_density > win]: [win] counts every window
     boundary at [d], so one lies outside the window;
   - else the max of [top] and the cuts outside the window, every one
     below [d].  This plain scan is the rare case, and the one case in
     which the density drops; it also counts the boundaries outside the
     window at the new density, for the replay ([pend_out]). *)
let[@inline] resolve t w0 w1 top win =
  let cuts = t.cuts and d = t.density in
  t.pend_at <- win;
  t.pend_density <-
    (if top >= d then top
     else if t.at_density > win then d
     else begin
       let out = ref 0 and n_out = ref 0 in
       for x = 0 to Array.length cuts - 1 do
         if x < w0 || x >= w1 then begin
           let c = cuts.(x) in
           if c > !out then begin
             out := c;
             n_out := 1
           end
           else if c = !out then incr n_out
         end
       done;
       t.pend_out <- (if !out >= top then !n_out else 0);
       Int.max top !out
     end)

(* Step 3.  The sweep keeps its running values in locals: the cut
   change [run], [top] and [win].  A new max is rare past the first
   boundaries, so [top] takes a branch the predictor learns. *)
let finish_trial t w0 w1 =
  let window = t.window and cuts = t.cuts and d = t.density in
  let run = ref 0 and win = ref 0 and top = ref 0 in
  for x = w0 to w1 - 1 do
    run := !run + window.(x);
    let v = cuts.(x) in
    win := !win + Bool.to_int (v = d);
    let v' = v + !run in
    if v' > !top then top := v'
  done;
  resolve t w0 w1 !top !win

(* Table mode, steps 1-3 in one sweep.  After the move, the elements
   left of boundary x in [w0, w1) are the set [pre.(x + off) lxor flip]:
   - a swap of a and b at p < q: [pre.(x + 1)] with a out and b in, so
     [off = 1] and [flip = {a, b}];
   - element e relocated forward: [pre.(x + 2)] without e ([off = 2]);
   - relocated backward: [pre.(x)] with e ([off = 0]);
   with [flip = {e}] for both relocates.  The table stores only the
   sets without element n-1; a set holding it reads its complement's
   cell, the same cut.  A trial touches no net, so [n_touched] stays 0
   and the replay moves no span. *)
let[@inline] table_cut table ~high ~full s =
  Bytes.get_uint16_le table (2 * (s lxor (full land -(s lsr high))))

let table_trial t w0 w1 ~off ~flip =
  let pre = t.pre and table = t.table and cuts = t.cuts in
  let pend_cut = t.pend_cut and d = t.density in
  let high = size t - 1 in
  let full = (2 lsl high) - 1 in
  let win = ref 0 and top = ref 0 and sum = ref 0 in
  for x = w0 to w1 - 1 do
    let v' = table_cut table ~high ~full (pre.(x + off) lxor flip) in
    let v = cuts.(x) in
    pend_cut.(x) <- v';
    win := !win + Bool.to_int (v = d);
    sum := !sum + (v' - v);
    top := bmax !top v'
  done;
  t.pend_sum <- !sum;
  resolve t w0 w1 !top !win

(* Touched net [i] has one pin moving from [src] to [dst]; [pos_of]
   already holds the would-be positions.  A two-pin net's other pin sits
   at [lo + hi - src]; otherwise, unless the moving pin was an endpoint
   moving inward, the new span follows from the old one. *)
let[@inline] moved_pin t i ~src ~dst =
  let j = t.touched.(i) in
  let lo = t.net_lo.(j) and hi = t.net_hi.(j) in
  if t.nv.pin_start.(j + 1) - t.nv.pin_start.(j) = 2 then begin
    let o = lo + hi - src in
    if o < dst then record_span t i o dst else record_span t i dst o
  end
  else if (src = lo && dst > lo) || (src = hi && dst < hi) then rescan t i j
  else record_span t i (bmin dst lo) (bmax dst hi)

(* [p < q]. *)
let span_swap t p q =
  let nv = t.nv in
  let a = t.elem_at.(p) and b = t.elem_at.(q) in
  (* A net holding both elements keeps its span.  Stamp a's nets with
     [s], restamp the shared ones [s + 1] while listing b's own (pin
     q -> p), then list a's own (pin p -> q). *)
  clear_record t;
  let s = t.mark + 1 in
  t.mark <- s + 1;
  let a0 = nv.inc_start.(a) and a1 = nv.inc_start.(a + 1) - 1 in
  for k = a0 to a1 do
    t.net_mark.(nv.incident.(k)) <- s
  done;
  for k = nv.inc_start.(b) to nv.inc_start.(b + 1) - 1 do
    let j = nv.incident.(k) in
    if t.net_mark.(j) = s then t.net_mark.(j) <- s + 1 else push t j
  done;
  let n_b = t.n_touched in
  for k = a0 to a1 do
    let j = nv.incident.(k) in
    if t.net_mark.(j) = s then push t j
  done;
  t.pos_of.(a) <- q;
  t.pos_of.(b) <- p;
  for i = 0 to n_b - 1 do
    moved_pin t i ~src:q ~dst:p
  done;
  for i = n_b to t.n_touched - 1 do
    moved_pin t i ~src:p ~dst:q
  done;
  t.pos_of.(a) <- p;
  t.pos_of.(b) <- q;
  finish_trial t p q

(* Element at [from_pos] goes to [to_pos]; those in between shift one
   step toward [from_pos]; the rest stay. *)
let shifted ~from_pos ~to_pos x =
  if x = from_pos then to_pos
  else if from_pos < to_pos then if x > from_pos && x <= to_pos then x - 1 else x
  else if x >= to_pos && x < from_pos then x + 1
  else x

let span_relocate t ~from_pos ~to_pos ~w0 ~w1 =
  let nv = t.nv in
  clear_record t;
  let s = t.mark + 1 in
  t.mark <- s;
  (* The moved element's nets come first and are rescanned.  Any other
     touched net keeps the order of its pins, so its endpoints shift. *)
  let e = t.elem_at.(from_pos) in
  for k = nv.inc_start.(e) to nv.inc_start.(e + 1) - 1 do
    let j = nv.incident.(k) in
    t.net_mark.(j) <- s;
    push t j
  done;
  let n_e = t.n_touched in
  for x = w0 to w1 do
    let e = t.elem_at.(x) in
    for k = nv.inc_start.(e) to nv.inc_start.(e + 1) - 1 do
      let j = nv.incident.(k) in
      if t.net_mark.(j) <> s then begin
        t.net_mark.(j) <- s;
        push t j
      end
    done;
    t.pos_of.(e) <- shifted ~from_pos ~to_pos x
  done;
  for i = 0 to t.n_touched - 1 do
    let j = t.touched.(i) in
    if i < n_e then rescan t i j
    else
      record_span t i
        (shifted ~from_pos ~to_pos t.net_lo.(j))
        (shifted ~from_pos ~to_pos t.net_hi.(j))
  done;
  for x = w0 to w1 do
    t.pos_of.(t.elem_at.(x)) <- x
  done;
  finish_trial t w0 w1

(* Table mode: the masks [pre.(w0 + 1) .. pre.(w1)] after the move,
   each from one old mask by the [off] / [flip] rule of [table_trial],
   so no store waits on the one before:
   - a swap: [pre.(x) lxor flip];
   - a forward relocate: [pre.(x + 1) lxor flip], ascending, so
     [pre.(x + 1)] is read before it is rewritten;
   - a backward relocate: [pre.(x - 1) lxor flip], descending. *)
let refresh_prefixes t w0 w1 ~off ~flip =
  let pre = t.pre in
  if off = 1 then
    for x = w0 + 1 to w1 do
      pre.(x) <- pre.(x) lxor flip
    done
  else if off = 2 then
    for x = w0 + 1 to w1 do
      pre.(x) <- pre.(x + 1) lxor flip
    done
  else
    for x = w1 downto w0 + 1 do
      pre.(x) <- pre.(x - 1) lxor flip
    done

(* Commit the pending trial: move the elements, set the touched nets'
   spans (table mode: refresh the window's prefix masks) and write the
   window's new cuts, counting those at the new density [d'].  In span
   mode each new cut is the old one plus the running sum of the record
   in [window]; table mode reads it from [pend_cut].  The
   boundaries outside the window keep their cuts, so the count at [d']
   adds to that window count the outside ones:
   - when the density holds, [out], the old count less the window's
     old boundaries at it ([pend_at]);
   - when it rises, none: every cut outside is at most the old density;
   - when it drops, [pend_out].
   Each value written trades places with the one it replaces, and the
   record in [window] is negated, so the record left pending is the
   inverse move's trial: the old spans, the old cuts (table mode) or
   the negated record (span mode), the window's count at [d'], the old
   density and sum, [out] as the inverse's [pend_out] (used if this
   move raised the density, so that the inverse drops it), and for a
   relocate the two ends exchanged. *)
let replay t =
  let a = t.pend_a and b = t.pend_b in
  let w0 = Int.min a b and w1 = Int.max a b in
  let table_mode = t.table_mode in
  if t.pend_kind = 1 then begin
    let ea = t.elem_at.(a) and eb = t.elem_at.(b) in
    t.elem_at.(a) <- eb;
    t.elem_at.(b) <- ea;
    t.pos_of.(ea) <- b;
    t.pos_of.(eb) <- a;
    if table_mode then refresh_prefixes t w0 w1 ~off:1 ~flip:((1 lsl ea) lor (1 lsl eb))
  end
  else begin
    let e = t.elem_at.(a) in
    if a < b then Array.blit t.elem_at (a + 1) t.elem_at a (b - a)
    else Array.blit t.elem_at b t.elem_at (b + 1) (a - b);
    t.elem_at.(b) <- e;
    for x = w0 to w1 do
      t.pos_of.(t.elem_at.(x)) <- x
    done;
    if table_mode then
      refresh_prefixes t w0 w1 ~off:(if a < b then 2 else 0) ~flip:(1 lsl e);
    t.pend_a <- b;
    t.pend_b <- a
  end;
  for i = 0 to t.n_touched - 1 do
    let j = t.touched.(i) in
    let lo = t.net_lo.(j) and hi = t.net_hi.(j) in
    t.net_lo.(j) <- t.pend_lo.(i);
    t.net_hi.(j) <- t.pend_hi.(i);
    t.pend_lo.(i) <- lo;
    t.pend_hi.(i) <- hi
  done;
  let cuts = t.cuts in
  let d = t.density and d' = t.pend_density in
  let win = ref 0 in
  if table_mode then begin
    let pend_cut = t.pend_cut in
    for x = w0 to w1 - 1 do
      let v' = pend_cut.(x) in
      pend_cut.(x) <- cuts.(x);
      cuts.(x) <- v';
      win := !win + Bool.to_int (v' = d')
    done
  end
  else begin
    let window = t.window and run = ref 0 in
    for x = w0 to w1 - 1 do
      let w = window.(x) in
      window.(x) <- -w;
      run := !run + w;
      let v' = cuts.(x) + !run in
      cuts.(x) <- v';
      win := !win + Bool.to_int (v' = d')
    done;
    window.(w1) <- -window.(w1)
  end;
  let out = t.at_density - t.pend_at in
  t.at_density <-
    !win + (-Bool.to_int (d' = d) land out) + (-Bool.to_int (d' < d) land t.pend_out);
  t.pend_out <- out;
  t.pend_at <- !win;
  t.sum_cuts <- t.sum_cuts + t.pend_sum;
  t.pend_sum <- -t.pend_sum;
  t.density <- d';
  t.pend_density <- d

(* Replay the applied move, if any, or rebuild a snapshot from its
   order: every entry point but a move's own pricing ([density],
   [sum_of_cuts]) and its inverse settles first, and [settle_order] is
   enough for those that read only the order. *)
let[@inline] settle t =
  if t.applied then begin
    t.applied <- false;
    if t.pend_kind = stale then begin
      alloc_derived t;
      recompute_all t
    end
    else replay t
  end

let[@inline] settle_order t = if t.pend_kind <> stale then settle t

let element_at t p =
  settle_order t;
  t.elem_at.(p)

let position_of t e =
  settle t;
  t.pos_of.(e)

let order t =
  settle_order t;
  Array.copy t.elem_at

let cut t p =
  settle t;
  t.cuts.(p)

let cuts t =
  settle t;
  Array.copy t.cuts

let density t = if t.applied then t.pend_density else t.density
let sum_of_cuts t = if t.applied then t.sum_cuts + t.pend_sum else t.sum_cuts

(* The order and the scalars; the snapshot's [density] and
   [sum_of_cuts] read them through the applied-move path. *)
let copy t =
  settle_order t;
  {
    t with
    elem_at = Array.copy t.elem_at;
    pos_of = [||];
    cuts = [||];
    net_lo = [||];
    net_hi = [||];
    pre = [||];
    net_mark = [||];
    touched = [||];
    window = [||];
    n_touched = 0;
    pend_cut = [||];
    pend_lo = [||];
    pend_hi = [||];
    pend_kind = stale;
    pend_density = t.density;
    pend_sum = 0;
    applied = true;
  }

let check_positions name t p q =
  let n = size t in
  if p < 0 || p >= n || q < 0 || q >= n then
    invalid_arg ("Arrangement." ^ name ^ ": position out of range")

(* Make a move's trial the pending one, settling first and pricing the
   move unless it is pending already.  A swap is recorded with its
   smaller position first.  A trial needs two distinct positions, so
   [n >= 2], and a state whose [pend_cut] (table mode) and [window]
   (span mode) are both empty has not allocated its scratch yet. *)
let pending t kind a b = t.pend_kind = kind && t.pend_a = a && t.pend_b = b

let set_pending t kind a b =
  t.pend_kind <- kind;
  t.pend_a <- a;
  t.pend_b <- b

let trial_swap t p q =
  settle t;
  let p = Int.min p q and q = Int.max p q in
  if not (pending t 1 p q) then begin
    if Array.length t.pend_cut + Array.length t.window = 0 then alloc_scratch t;
    if t.table_mode then
      table_trial t p q ~off:1 ~flip:((1 lsl t.elem_at.(p)) lor (1 lsl t.elem_at.(q)))
    else span_swap t p q;
    set_pending t 1 p q
  end

let trial_relocate t ~from_pos ~to_pos =
  settle t;
  if not (pending t 2 from_pos to_pos) then begin
    if Array.length t.pend_cut + Array.length t.window = 0 then alloc_scratch t;
    let w0 = Int.min from_pos to_pos and w1 = Int.max from_pos to_pos in
    if t.table_mode then
      table_trial t w0 w1
        ~off:(if from_pos < to_pos then 2 else 0)
        ~flip:(1 lsl t.elem_at.(from_pos))
    else span_relocate t ~from_pos ~to_pos ~w0 ~w1;
    set_pending t 2 from_pos to_pos
  end

(* A swap undoes itself, so the applied swap of the same two positions
   only clears the mark; a relocate is undone by the one with its ends
   exchanged.  The trial left pending is the move's own, as after a
   replay and the inverse's replay. *)
let swap_positions t p q =
  check_positions "swap_positions" t p q;
  if p <> q then
    if t.applied && pending t 1 (Int.min p q) (Int.max p q) then t.applied <- false
    else begin
      trial_swap t p q;
      t.applied <- true
    end

let swap_elements t a b =
  let n = size t in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Arrangement.swap_elements: element out of range";
  swap_positions t (position_of t a) (position_of t b)

let relocate t ~from_pos ~to_pos =
  check_positions "relocate" t from_pos to_pos;
  if from_pos <> to_pos then
    if t.applied && pending t 2 to_pos from_pos then t.applied <- false
    else begin
      trial_relocate t ~from_pos ~to_pos;
      t.applied <- true
    end

let swap_density_delta t p q =
  check_positions "swap_density_delta" t p q;
  if p = q then 0
  else begin
    trial_swap t p q;
    t.pend_density - t.density
  end

let swap_delta t p q =
  check_positions "swap_delta" t p q;
  if p = q then (0, 0)
  else begin
    trial_swap t p q;
    (t.pend_density - t.density, t.pend_sum)
  end

let relocate_delta t ~from_pos ~to_pos =
  check_positions "relocate_delta" t from_pos to_pos;
  if from_pos = to_pos then (0, 0)
  else begin
    trial_relocate t ~from_pos ~to_pos;
    (t.pend_density - t.density, t.pend_sum)
  end

(* The applied move, if any, is dropped with the rest of the state. *)
let set_order t o =
  if not (is_permutation (size t) o) then
    invalid_arg "Arrangement.set_order: not a permutation";
  if t.pend_kind = stale then alloc_derived t;
  Array.blit o 0 t.elem_at 0 (size t);
  recompute_all t

let check t =
  settle t;
  let n = size t in
  for e = 0 to n - 1 do
    if t.elem_at.(t.pos_of.(e)) <> e then
      failwith "Arrangement.check: pos_of/elem_at are not inverse"
  done;
  let fresh = Array.make (max 0 (n - 1)) 0 in
  let sum = ref 0 in
  let table_mode = t.table_mode in
  for j = 0 to Netlist.n_nets t.netlist - 1 do
    let lo, hi = net_span t j in
    if (not table_mode) && (t.net_lo.(j) <> lo || t.net_hi.(j) <> hi) then
      failwith "Arrangement.check: stale net span";
    for p = lo to hi - 1 do
      fresh.(p) <- fresh.(p) + 1;
      incr sum
    done
  done;
  if Array.length t.window > 0 then begin
    let record = Array.make n 0 and change = ref 0 in
    for i = 0 to t.n_touched - 1 do
      let j = t.touched.(i) in
      let lo = t.net_lo.(j) and hi = t.net_hi.(j) in
      let lo' = t.pend_lo.(i) and hi' = t.pend_hi.(i) in
      record.(lo') <- record.(lo') + 1;
      record.(lo) <- record.(lo) - 1;
      record.(hi') <- record.(hi') - 1;
      record.(hi) <- record.(hi) + 1;
      change := !change + (hi' - lo') - (hi - lo)
    done;
    if t.window <> record then
      failwith "Arrangement.check: trial window differs from the pending record";
    if t.pend_kind <> 0 && t.pend_sum <> !change then
      failwith "Arrangement.check: pending sum differs from the pending record"
  end;
  if table_mode then begin
    let table = Netlist.cut_table t.netlist in
    let set = ref 0 in
    for x = 0 to n do
      if t.pre.(x) <> !set then failwith "Arrangement.check: stale prefix mask";
      if x < n then set := !set lor (1 lsl t.elem_at.(x))
    done;
    Array.iteri
      (fun x c ->
        if table_cut table ~high:(n - 1) ~full:((1 lsl n) - 1) t.pre.(x + 1) <> c then
          failwith "Arrangement.check: table cut differs from the recount")
      fresh
  end;
  Array.iteri
    (fun p c -> if t.cuts.(p) <> c then failwith "Arrangement.check: stale cut")
    fresh;
  if t.sum_cuts <> !sum then failwith "Arrangement.check: stale sum of cuts";
  let d = Array.fold_left max 0 fresh in
  if t.density <> d then failwith "Arrangement.check: stale density";
  if t.at_density <> Array.fold_left (fun c v -> c + Bool.to_int (v = d)) 0 fresh then
    failwith "Arrangement.check: stale count of boundaries at the density"

let density_of_order netlist o =
  let n = Netlist.n_elements netlist in
  if not (is_permutation n o) then
    invalid_arg "Arrangement.density_of_order: order is not a permutation";
  let pos_of = Array.make n 0 in
  Array.iteri (fun p e -> pos_of.(e) <- p) o;
  let cuts = Array.make (max 0 (n - 1)) 0 in
  cuts_from_scratch (Netlist.view netlist) pos_of cuts [||] [||];
  Array.fold_left max 0 cuts

module Private = struct
  let create_span ?order netlist = create_on ~kernel:`Span ?order netlist
  let is_table t = t.table_mode
  let pending_diff t =
    settle t;
    if t.pend_kind = 0 then []
    else
      let w0 = Int.min t.pend_a t.pend_b and w1 = Int.max t.pend_a t.pend_b in
      let run = ref 0 and diff = ref [] in
      for x = w0 to w1 - 1 do
        let c =
          if t.table_mode then t.pend_cut.(x) - t.cuts.(x)
          else begin
            run := !run + t.window.(x);
            !run
          end
        in
        if c <> 0 then diff := (x, c) :: !diff
      done;
      List.rev !diff

  let arrays t =
    [
      t.elem_at; t.pos_of; t.cuts; t.net_lo; t.net_hi; t.pre; t.window; t.pend_cut; t.pend_lo;
      t.pend_hi;
    ]
end
