(* Instrumentation applied from outside the program: a monotonic clock,
   one accumulator per step layer, a [Timed] functor that wraps an
   [Mc_problem.S] adapter, and wrappers for [delta_ops] and g-functions.

   Every timing in the ledger reads [Monotonic_clock.now]; [Obs.now] is
   gettimeofday, which can step.  The layer accumulators are plain
   mutable ints, so traced runs must stay on one domain. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type slot = { name : string; mutable calls : int; mutable ns : int }

let slot name = { name; calls = 0; ns = 0 }

(* The step decomposition shared by both evaluator paths:
   - move:   random_move / propose
   - price:  apply + cost (recompute path) or delta (+ resync cost)
   - settle: revert (recompute path) or commit + abandon
   - copy:   best-state snapshots
   - gfun:   acceptance-function evaluation *)
let move = slot "move"
let price = slot "price"
let settle = slot "settle"
let copy = slot "copy"
let gfun = slot "gfun"
let slots = [ move; price; settle; copy; gfun ]

(* Accepted moves on the delta path; on the recompute path an accepted
   move is simply one that is not reverted. *)
let commits = ref 0

let reset () =
  commits := 0;
  List.iter
    (fun s ->
      s.calls <- 0;
      s.ns <- 0)
    slots

let[@inline] stop s t0 =
  let t1 = now_ns () in
  s.calls <- s.calls + 1;
  s.ns <- s.ns + (t1 - t0)

module Timed (P : Mc_problem.S) = struct
  type state = P.state
  type move = P.move

  let cost st =
    let t0 = now_ns () in
    let c = P.cost st in
    stop price t0;
    c

  let random_move rng st =
    let t0 = now_ns () in
    let m = P.random_move rng st in
    stop move t0;
    m

  let apply st m =
    let t0 = now_ns () in
    P.apply st m;
    stop price t0

  let revert st m =
    let t0 = now_ns () in
    P.revert st m;
    stop settle t0

  let copy st =
    let t0 = now_ns () in
    let c = P.copy st in
    stop copy t0;
    c

  let moves = P.moves
end

let delta_ops (d : ('s, 'm) Mc_problem.delta_ops) =
  {
    d with
    Mc_problem.propose =
      (fun rng st ->
        let t0 = now_ns () in
        let m = d.propose rng st in
        stop move t0;
        m);
    delta =
      (fun st m ->
        let t0 = now_ns () in
        let v = d.delta st m in
        stop price t0;
        v);
    commit =
      (fun st m ->
        let t0 = now_ns () in
        d.commit st m;
        stop settle t0;
        incr commits);
    abandon =
      (fun st m ->
        let t0 = now_ns () in
        d.abandon st m;
        stop settle t0);
  }

(* [Gfun.custom] drops the deferred-uphill flag, so the g = 1 class
   runs unwrapped; its decision involves no g evaluation anyway. *)
let gfun_of g =
  if Gfun.defer_uphill g then g
  else
    let eval = Gfun.eval g in
    Gfun.custom ~name:(Gfun.name g) ~k:(Gfun.k g) (fun ~temp ~y ~hi ~hj ->
        let t0 = now_ns () in
        let v = eval ~temp ~y ~hi ~hj in
        stop gfun t0;
        v)

(* Cost of one clock-read pair as seen inside a timed interval: the
   median over batches of the mean empty interval.  Subtracted once
   per timed call. *)
let calibrate () =
  let batch () =
    let n = 100_000 in
    let total = ref 0 in
    for _ = 1 to n do
      let t0 = now_ns () in
      let t1 = now_ns () in
      total := !total + (t1 - t0)
    done;
    float_of_int !total /. float_of_int n
  in
  let b = Array.init 5 (fun _ -> batch ()) in
  Array.sort compare b;
  b.(2)

(* Host-interference gauge.  On a shared host another tenant on a
   core's sibling hyperthread can slow cache-resident code twofold, in
   episodes from tens of milliseconds to minutes, long enough to cover
   whole runs.  This fixed loop slows along with the workloads, so op
   times are scaled by it: a time in reference seconds is wall seconds
   x [canary_ref] / canary time.  [canary_ref] is about the canary's
   time on an uncontended core of the reference host (2-vCPU KVM
   guest, Xeon, OCaml 5.1.1). *)
let canary_ref = 0.00027

(* One pass allocates like an engine step (boxed floats consed onto
   short lists, all dying young) and then makes a chain of dependent
   reads and writes scattered over 4 MiB, past the 2 MiB L2, as a tour
   over a large distance matrix does.  Scaled by the allocation part
   alone, linarr-n600 ops read 4.7% slower in reference time under
   heavy contention than under moderate contention; with both parts,
   2.4%.  The 4 MiB live outside the OCaml heap: as live heap data
   they would slow the major GC's pace for the workload itself. *)
let scattered =
  let a = Bigarray.(Array1.create int c_layout (1 lsl 19)) in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    a.{i} <- i
  done;
  a

(* Mean time of one pass, over as many passes as fill 25 ms on the
   calling domain.  Contention swings by a fifth between 20 ms slices,
   so a gauge of a few passes mostly measures that jitter: with 1 ms of
   passes the canaries on either side of one op correlated 0.1, with
   25 ms 0.3 to 0.6. *)
let canary () =
  let pass () =
    let l = ref [] in
    for i = 1 to 100_000 do
      l := float_of_int i :: (if i land 63 = 0 then [] else !l)
    done;
    ignore (Sys.opaque_identity !l);
    let x = ref 12345 and acc = ref 0 in
    for _ = 1 to 20_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let j = !x land (Bigarray.Array1.dim scattered - 1) in
      acc := !acc + scattered.{j};
      scattered.{j} <- !acc
    done
  in
  let t0 = now_ns () in
  let passes = ref 0 in
  while now_ns () - t0 < 25_000_000 do
    pass ();
    incr passes
  done;
  seconds_since t0 /. float_of_int !passes

(* Coarse spans (workload, set-up, trial, walk, job), kept in memory
   and written with the detailed report.  Recorded from the main
   thread only. *)
type span = { id : int; parent : int; label : string; t0 : int; t1 : int }

let spans = ref []
let next_span = ref 0
let enclosing = ref 0
let origin = now_ns ()

let fresh_id () =
  incr next_span;
  !next_span

(* A finished span; its parent defaults to the innermost open [span]. *)
let record ?(parent = !enclosing) ?(id = fresh_id ()) label ~t0 ~t1 =
  spans := { id; parent; label; t0; t1 } :: !spans;
  id

let span label f =
  let id = fresh_id () and outer = !enclosing in
  let t0 = now_ns () in
  enclosing := id;
  let r = Fun.protect ~finally:(fun () -> enclosing := outer) f in
  ignore (record ~parent:outer ~id label ~t0 ~t1:(now_ns ()));
  r

let spans_json () =
  Obs.Json.List
    (List.rev_map
       (fun s ->
         Obs.Json.Obj
           [
             ("id", Obs.Json.Int s.id);
             ("parent", Obs.Json.Int s.parent);
             ("name", Obs.Json.String s.label);
             ("start_us", Obs.Json.Float (float_of_int (s.t0 - origin) *. 1e-3));
             ("dur_us", Obs.Json.Float (float_of_int (s.t1 - s.t0) *. 1e-3));
           ])
       !spans)
