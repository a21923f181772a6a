(* Invariants maintained by every operation:
   - elem_at and pos_of are inverse permutations;
   - span mode: net_lo.(j) / net_hi.(j) are the min/max positions of
     net j's pins;
   - table mode: pre.(k) is the bit mask of the elements at positions
     < k, for 0 <= k <= n;
   - cuts.(p) = #{ j | net_lo.(j) <= p < net_hi.(j) } for 0 <= p < n-1,
     the cut of the set pre.(p + 1) in table mode;
   - cut_count.(v) = #{ p | cuts.(p) = v };
   - density = max { v | cut_count.(v) > 0 } (0 if there are no boundaries);
   - sum_cuts = sum of cuts. *)

type t = {
  netlist : Netlist.t;
  nv : Netlist.view; (* the netlist's flat arrays, walked by the moves *)
  elem_at : int array;
  pos_of : int array;
  cuts : int array; (* length max 0 (n-1) *)
  cut_count : int array; (* length n_nets + 1 *)
  mutable density : int;
  mutable sum_cuts : int;
  net_lo : int array; (* span mode, else empty *)
  net_hi : int array;
  pre : int array; (* table mode, length n + 1; else empty *)
  mutable table : Bytes.t; (* the netlist's [cut_table], fetched by the first trial *)
  (* Trial scratch (see the move kernel below), allocated by a state's
     first trial ([alloc_scratch]) and never copied, so a snapshot holds
     only the arrays above; table mode allocates only [diff_pos] /
     [diff].  [net_mark] / [touched] de-duplicate the nets a move
     touches.  A trial records, without committing, the
     boundaries whose cut would change ([diff_pos] / [diff], sparse) and
     the new span of every touched net ([pend_lo] / [pend_hi], indexed
     like [touched]).  A commit of the same move replays the recording
     and leaves the inverse move's trial in its place; any other
     mutation invalidates it via [pend_kind]. *)
  mutable net_mark : int array; (* length n_nets *)
  mutable mark : int;
  mutable touched : int array; (* capacity n_nets *)
  mutable n_touched : int;
  mutable window : int array; (* length n; difference array, zero outside a trial *)
  mutable diff_pos : int array; (* length max 0 (n-1) *)
  mutable diff : int array; (* cut change at diff_pos.(k), never 0 *)
  mutable n_diff : int;
  mutable pend_lo : int array; (* capacity n_nets; new span of touched.(i) *)
  mutable pend_hi : int array;
  mutable pend_kind : int; (* 0 = none, 1 = swap, 2 = relocate *)
  mutable pend_a : int; (* swap: min position; relocate: from_pos *)
  mutable pend_b : int; (* swap: max position; relocate: to_pos *)
  mutable pend_density : int;
  mutable pend_sum : int;
}

let size t = Array.length t.elem_at
let netlist t = t.netlist
let element_at t p = t.elem_at.(p)
let position_of t e = t.pos_of.(e)
let order t = Array.copy t.elem_at
let cut t p = t.cuts.(p)
let cuts t = Array.copy t.cuts
let density t = t.density
let sum_of_cuts t = t.sum_cuts

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

let span_in (nv : Netlist.view) pos_of j =
  let lo = ref max_int and hi = ref (-1) in
  for k = nv.pin_start.(j) to nv.pin_start.(j + 1) - 1 do
    let p = pos_of.(nv.pins.(k)) in
    if p < !lo then lo := p;
    if p > !hi then hi := p
  done;
  (!lo, !hi)

let net_span t j = span_in t.nv t.pos_of j

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
   turns those marks into the cuts.  [span j lo hi] sees every span. *)
let cuts_from_scratch netlist pos_of cuts span =
  let nb = Array.length cuts in
  let nv = Netlist.view netlist in
  for j = 0 to Netlist.n_nets netlist - 1 do
    let lo, hi = span_in nv pos_of j in
    span j lo hi;
    cuts.(lo) <- cuts.(lo) + 1;
    if hi < nb then cuts.(hi) <- cuts.(hi) - 1
  done;
  for p = 1 to nb - 1 do
    cuts.(p) <- cuts.(p) + cuts.(p - 1)
  done

let recompute_all t =
  t.pend_kind <- 0;
  Array.fill t.cuts 0 (Array.length t.cuts) 0;
  if Array.length t.pre > 0 then begin
    fill_prefixes t 0 (size t);
    cuts_from_scratch t.netlist t.pos_of t.cuts (fun _ _ _ -> ())
  end
  else
    cuts_from_scratch t.netlist t.pos_of t.cuts (fun j lo hi ->
        t.net_lo.(j) <- lo;
        t.net_hi.(j) <- hi);
  Array.fill t.cut_count 0 (Array.length t.cut_count) 0;
  t.density <- 0;
  t.sum_cuts <- 0;
  Array.iter
    (fun v ->
      t.cut_count.(v) <- t.cut_count.(v) + 1;
      t.sum_cuts <- t.sum_cuts + v;
      if v > t.density then t.density <- v)
    t.cuts

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
  let pos_of = Array.make n 0 in
  Array.iteri (fun p e -> pos_of.(e) <- p) elem_at;
  let m = Netlist.n_nets netlist in
  let table = kernel = `Table && n <= table_max_elements && m <= 0xffff in
  let per_net = if table then 0 else m in
  let t =
    {
      netlist;
      nv = Netlist.view netlist;
      elem_at;
      pos_of;
      cuts = Array.make (max 0 (n - 1)) 0;
      cut_count = Array.make (m + 1) 0;
      density = 0;
      sum_cuts = 0;
      net_lo = Array.make per_net 0;
      net_hi = Array.make per_net 0;
      pre = (if table then Array.make (n + 1) 0 else [||]);
      table = Bytes.empty;
      net_mark = [||];
      mark = 0;
      touched = [||];
      n_touched = 0;
      window = [||];
      diff_pos = [||];
      diff = [||];
      n_diff = 0;
      pend_lo = [||];
      pend_hi = [||];
      pend_kind = 0;
      pend_a = 0;
      pend_b = 0;
      pend_density = 0;
      pend_sum = 0;
    }
  in
  recompute_all t;
  t

let create ?order netlist = create_on ~kernel:`Table ?order netlist

let random rng netlist =
  create ~order:(Rng.permutation rng (Netlist.n_elements netlist)) netlist

let copy t =
  {
    t with
    elem_at = Array.copy t.elem_at;
    pos_of = Array.copy t.pos_of;
    cuts = Array.copy t.cuts;
    cut_count = Array.copy t.cut_count;
    net_lo = Array.copy t.net_lo;
    net_hi = Array.copy t.net_hi;
    pre = Array.copy t.pre;
    net_mark = [||];
    touched = [||];
    window = [||];
    diff_pos = [||];
    diff = [||];
    pend_lo = [||];
    pend_hi = [||];
    pend_kind = 0;
  }

let alloc_scratch t =
  let n = size t and m = Netlist.n_nets t.netlist in
  t.diff_pos <- Array.make (max 0 (n - 1)) 0;
  t.diff <- Array.make (max 0 (n - 1)) 0;
  if Array.length t.pre > 0 then t.table <- Netlist.cut_table t.netlist
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
   1. computes each touched net's new span;
   2. adds its changed endpoints (+1 at a new lo, -1 at a new hi, -1 at
      the old lo, +1 at the old hi; all inside [w0, w1]) to the zeroed
      difference array [window] ([record_span]);
   3. sweeps [w0, w1] once, turning the running sum into the sparse
      [diff_pos] / [diff] list and zeroing [window] behind it, while
      locals track the window's max cut after the move and how many
      changed boundaries sat at the density;
   4. resolves the new density from those two values and one read of
      the cut histogram, or, when every boundary at the density drops,
      from a scan of the cuts outside the window ([finish_trial]).
   A swap thus costs O(incident pins + |p - q|), and O(n) in that rare
   fallback.  In table mode steps 1-3 are one sweep that reads each
   window boundary's new cut from the table of subset cuts
   ([table_trial]); step 4 is shared.  A commit replays the recording
   ([replay]), which leaves the inverse move's trial pending.
   [swap_positions] and [relocate] replay when the pending trial is
   theirs and price first otherwise, so a rejected move's revert costs
   only a replay.

   The loops below read the netlist's flat arrays directly rather than
   through [Netlist.iter_pins] / [iter_incident]: a closure passed
   across a module boundary is called, not inlined, once per pin. *)

let[@inline] record_span t i lo' hi' =
  let j = t.touched.(i) in
  let lo = t.net_lo.(j) and hi = t.net_hi.(j) in
  t.pend_lo.(i) <- lo';
  t.pend_hi.(i) <- hi';
  if lo' <> lo then begin
    t.window.(lo') <- t.window.(lo') + 1;
    t.window.(lo) <- t.window.(lo) - 1
  end;
  if hi' <> hi then begin
    t.window.(hi') <- t.window.(hi') - 1;
    t.window.(hi) <- t.window.(hi) + 1
  end;
  t.pend_sum <- t.pend_sum + (hi' - lo') - (hi - lo)

(* Step 4, from the window's max cut after the move [top] and [hit], the
   changed boundaries whose old cut is the density [d].  Every boundary
   outside the window keeps its cut, which is at most [d].  So the new
   density is
   - [top] when [top >= d];
   - else [d] when [cut_count.(d) > hit]: a boundary at [d] is
     unchanged, and it lies outside the window, where [top < d];
   - else the max of [top] and the cuts outside the window, every one
     below [d].  This plain scan is the rare case. *)
let[@inline] resolve t w0 w1 top hit =
  let cuts = t.cuts and d = t.density in
  t.pend_density <-
    (if top >= d then top
     else if t.cut_count.(d) > hit then d
     else begin
       let top = ref top in
       for x = 0 to w0 - 1 do
         if cuts.(x) > !top then top := cuts.(x)
       done;
       for x = w1 to Array.length cuts - 1 do
         if cuts.(x) > !top then top := cuts.(x)
       done;
       !top
     end)

(* Step 3.  The sweep keeps its running values in locals: the cut
   change [run], [top] and [hit]. *)
let finish_trial t w0 w1 =
  let window = t.window and cuts = t.cuts in
  let diff_pos = t.diff_pos and diff = t.diff and d = t.density in
  let run = ref 0 and nd = ref 0 and hit = ref 0 and top = ref 0 in
  for x = w0 to w1 - 1 do
    let r = !run + window.(x) in
    run := r;
    window.(x) <- 0;
    let v = cuts.(x) in
    if r <> 0 then begin
      if v = d then incr hit;
      diff_pos.(!nd) <- x;
      diff.(!nd) <- r;
      incr nd
    end;
    if v + r > !top then top := v + r
  done;
  window.(w1) <- 0;
  t.n_diff <- !nd;
  resolve t w0 w1 !top !hit

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

(* The sweep has no branch on the data: every boundary writes its entry
   at [diff_pos.(nd)] / [diff.(nd)], and [nd] advances only past a
   nonzero change, so an unchanged boundary's entry is overwritten by
   the next one.  [nd] counts changed boundaries before [x], so it never
   passes n - 2.  [hit] counts with the same 0/1 and [top] takes the
   max by the sign of the difference. *)
let table_trial t w0 w1 ~off ~flip =
  let pre = t.pre and table = t.table and cuts = t.cuts in
  let diff_pos = t.diff_pos and diff = t.diff and d = t.density in
  let high = size t - 1 in
  let full = (2 lsl high) - 1 in
  let nd = ref 0 and hit = ref 0 and top = ref 0 and sum = ref 0 in
  for x = w0 to w1 - 1 do
    let v' = table_cut table ~high ~full (pre.(x + off) lxor flip) in
    let v = cuts.(x) in
    let dv = v' - v in
    let changed = Bool.to_int (dv <> 0) in
    diff_pos.(!nd) <- x;
    diff.(!nd) <- dv;
    nd := !nd + changed;
    hit := !hit + (changed land Bool.to_int (v = d));
    sum := !sum + dv;
    let up = v' - !top in
    top := !top + (up land lnot (up asr (Sys.int_size - 1)))
  done;
  t.n_diff <- !nd;
  t.pend_sum <- !sum;
  resolve t w0 w1 !top !hit

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
  else if (src = lo && dst > lo) || (src = hi && dst < hi) then
    let lo', hi' = net_span t j in
    record_span t i lo' hi'
  else record_span t i (if dst < lo then dst else lo) (if dst > hi then dst else hi)

(* [p < q]. *)
let span_swap t p q =
  let nv = t.nv in
  let a = t.elem_at.(p) and b = t.elem_at.(q) in
  (* A net holding both elements keeps its span.  Stamp a's nets with
     [s], restamp the shared ones [s + 1] while listing b's own (pin
     q -> p), then list a's own (pin p -> q). *)
  let s = t.mark + 1 in
  t.mark <- s + 1;
  t.n_touched <- 0;
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
  t.pend_sum <- 0;
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
  let s = t.mark + 1 in
  t.mark <- s;
  t.n_touched <- 0;
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
  t.pend_sum <- 0;
  for i = 0 to t.n_touched - 1 do
    let j = t.touched.(i) in
    if i < n_e then
      let lo', hi' = net_span t j in
      record_span t i lo' hi'
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
   spans (table mode: refresh the window's prefix masks) and apply the
   sparse cut changes.  Each value written trades places with the one
   it replaces, so the record left pending is the inverse move's trial:
   the old spans, the negated cut changes, the old density and sum, and
   for a relocate the two ends exchanged. *)
let replay t =
  let a = t.pend_a and b = t.pend_b in
  let w0 = Int.min a b and w1 = Int.max a b in
  let table_mode = Array.length t.pre > 0 in
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
  for k = 0 to t.n_diff - 1 do
    let x = t.diff_pos.(k) and d = t.diff.(k) in
    let v = t.cuts.(x) in
    t.cut_count.(v) <- t.cut_count.(v) - 1;
    t.cut_count.(v + d) <- t.cut_count.(v + d) + 1;
    t.cuts.(x) <- v + d;
    t.diff.(k) <- -d
  done;
  t.sum_cuts <- t.sum_cuts + t.pend_sum;
  t.pend_sum <- -t.pend_sum;
  let d = t.density in
  t.density <- t.pend_density;
  t.pend_density <- d

let check_positions name t p q =
  let n = size t in
  if p < 0 || p >= n || q < 0 || q >= n then
    invalid_arg ("Arrangement." ^ name ^ ": position out of range")

(* Make a move's trial the pending one, pricing it unless it already
   is.  A swap is recorded with its smaller position first.  A trial
   needs two distinct positions, so [n >= 2] and an empty [diff_pos]
   means the scratch is not allocated yet. *)
let pending t kind a b = t.pend_kind = kind && t.pend_a = a && t.pend_b = b

let set_pending t kind a b =
  t.pend_kind <- kind;
  t.pend_a <- a;
  t.pend_b <- b

let trial_swap t p q =
  let p = Int.min p q and q = Int.max p q in
  if not (pending t 1 p q) then begin
    if Array.length t.diff_pos = 0 then alloc_scratch t;
    if Array.length t.pre > 0 then
      table_trial t p q ~off:1 ~flip:((1 lsl t.elem_at.(p)) lor (1 lsl t.elem_at.(q)))
    else span_swap t p q;
    set_pending t 1 p q
  end

let trial_relocate t ~from_pos ~to_pos =
  if not (pending t 2 from_pos to_pos) then begin
    if Array.length t.diff_pos = 0 then alloc_scratch t;
    let w0 = Int.min from_pos to_pos and w1 = Int.max from_pos to_pos in
    if Array.length t.pre > 0 then
      table_trial t w0 w1
        ~off:(if from_pos < to_pos then 2 else 0)
        ~flip:(1 lsl t.elem_at.(from_pos))
    else span_relocate t ~from_pos ~to_pos ~w0 ~w1;
    set_pending t 2 from_pos to_pos
  end

let swap_positions t p q =
  check_positions "swap_positions" t p q;
  if p <> q then begin
    trial_swap t p q;
    replay t
  end

let swap_elements t a b =
  let n = size t in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Arrangement.swap_elements: element out of range";
  swap_positions t t.pos_of.(a) t.pos_of.(b)

let relocate t ~from_pos ~to_pos =
  check_positions "relocate" t from_pos to_pos;
  if from_pos <> to_pos then begin
    trial_relocate t ~from_pos ~to_pos;
    replay t
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

let set_order t o =
  if not (is_permutation (size t) o) then
    invalid_arg "Arrangement.set_order: not a permutation";
  Array.blit o 0 t.elem_at 0 (size t);
  Array.iteri (fun p e -> t.pos_of.(e) <- p) t.elem_at;
  recompute_all t

let check t =
  let n = size t in
  if Array.exists (fun w -> w <> 0) t.window then
    failwith "Arrangement.check: trial window not cleared";
  for e = 0 to n - 1 do
    if t.elem_at.(t.pos_of.(e)) <> e then
      failwith "Arrangement.check: pos_of/elem_at are not inverse"
  done;
  let fresh = Array.make (max 0 (n - 1)) 0 in
  let sum = ref 0 in
  let table_mode = Array.length t.pre > 0 in
  for j = 0 to Netlist.n_nets t.netlist - 1 do
    let lo, hi = net_span t j in
    if (not table_mode) && (t.net_lo.(j) <> lo || t.net_hi.(j) <> hi) then
      failwith "Arrangement.check: stale net span";
    for p = lo to hi - 1 do
      fresh.(p) <- fresh.(p) + 1;
      incr sum
    done
  done;
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
  Array.iteri
    (fun v c ->
      let actual = Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 fresh in
      if c <> actual then failwith "Arrangement.check: stale cut histogram")
    t.cut_count

let density_of_order netlist o =
  let n = Netlist.n_elements netlist in
  if not (is_permutation n o) then
    invalid_arg "Arrangement.density_of_order: order is not a permutation";
  let pos_of = Array.make n 0 in
  Array.iteri (fun p e -> pos_of.(e) <- p) o;
  let cuts = Array.make (max 0 (n - 1)) 0 in
  cuts_from_scratch netlist pos_of cuts (fun _ _ _ -> ());
  Array.fold_left max 0 cuts

module Private = struct
  let create_span ?order netlist = create_on ~kernel:`Span ?order netlist
  let is_table t = Array.length t.pre > 0
  let pending_diff t = List.init t.n_diff (fun k -> (t.diff_pos.(k), t.diff.(k)))
end
