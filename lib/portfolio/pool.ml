(* Deque-per-worker work stealing over a fixed task set.

   Tasks are identified by index and dealt round-robin up front, so
   worker [w]'s deque holds [w; w + workers; w + 2*workers; ...] in
   ascending order.  The owner pops from the front (ascending index,
   cache-friendly, and with one worker exactly a plain for-loop); a
   thief steals from the back, so owner and thief only collide on the
   last task of a deque.  A mutex per deque is plenty here: tasks are
   whole engine runs, thousands to millions of evaluations each, so
   deque operations are nowhere near the contention regime that
   justifies a lock-free Chase-Lev deque. *)

type deque = {
  tasks : int array;
  mutable front : int; (* next owner slot *)
  mutable back : int; (* one past the last live slot; thieves take back-1 *)
  lock : Mutex.t;
}

type t = { domains : int }

(* Per-worker counters, one Atomic cell per worker so the hot path
   never shares a cache line under a lock.  The clock is injected to
   keep this library dependency-free: callers pass a monotonic
   seconds-returning function (e.g. [Obs.now]) or accept zeros. *)
module Stats = struct
  type t = {
    clock : unit -> float;
    tasks_run : int Atomic.t array;
    steals : int Atomic.t array;
    queue_depth : int Atomic.t array;
    busy_ns : int Atomic.t array;
    idle_ns : int Atomic.t array;
  }

  let create ?(clock = fun () -> 0.) ~workers () =
    if workers <= 0 then invalid_arg "Pool.Stats.create: workers <= 0";
    let cells () = Array.init workers (fun _ -> Atomic.make 0) in
    {
      clock;
      tasks_run = cells ();
      steals = cells ();
      queue_depth = cells ();
      busy_ns = cells ();
      idle_ns = cells ();
    }

  let workers t = Array.length t.tasks_run
  let tasks_run t w = Atomic.get t.tasks_run.(w)
  let steals t w = Atomic.get t.steals.(w)
  let queue_depth t w = Atomic.get t.queue_depth.(w)
  let busy_seconds t w = float_of_int (Atomic.get t.busy_ns.(w)) *. 1e-9
  let idle_seconds t w = float_of_int (Atomic.get t.idle_ns.(w)) *. 1e-9

  let reset t =
    let zero = Array.iter (fun c -> Atomic.set c 0) in
    zero t.tasks_run;
    zero t.steals;
    zero t.queue_depth;
    zero t.busy_ns;
    zero t.idle_ns

  let add cells w n = ignore (Atomic.fetch_and_add cells.(w) n)
  let ns_of_seconds dt = int_of_float (dt *. 1e9)
end

let create ?domains () =
  let domains =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if domains <= 0 then invalid_arg "Pool.create: domains <= 0";
  { domains }

let domains t = t.domains

let locked dq f =
  Mutex.lock dq.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock dq.lock) f

let pop_front dq =
  locked dq (fun () ->
      if dq.front < dq.back then begin
        let i = dq.tasks.(dq.front) in
        dq.front <- dq.front + 1;
        Some i
      end
      else None)

let steal_back dq =
  locked dq (fun () ->
      if dq.front < dq.back then begin
        dq.back <- dq.back - 1;
        Some dq.tasks.(dq.back)
      end
      else None)

let run ?stats t f n =
  if n > 0 then begin
    let workers = min t.domains n in
    (match stats with
    | Some s when Stats.workers s < workers ->
        invalid_arg "Pool.map: stats sized below worker count"
    | _ -> ());
    let deques =
      Array.init workers (fun w ->
          let count = ((n - 1 - w) / workers) + 1 in
          let tasks = Array.init count (fun s -> w + (s * workers)) in
          { tasks; front = 0; back = count; lock = Mutex.create () })
    in
    (match stats with
    | Some s ->
        Array.iteri (fun w dq -> Atomic.set s.Stats.queue_depth.(w) dq.back) deques
    | None -> ());
    (* First failure wins deterministically by task index; the flag
       only stops tasks that have not started yet. *)
    let cancelled = Atomic.make false in
    let failures = Array.make n None in
    let worker w =
      let rec next_task k =
        if k >= workers then None
        else begin
          let victim = (w + k) mod workers in
          let dq = deques.(victim) in
          let take = if k = 0 then pop_front else steal_back in
          match take dq with
          | Some i ->
              (match stats with
              | Some s ->
                  Stats.add s.Stats.queue_depth victim (-1);
                  if k > 0 then Stats.add s.Stats.steals w 1
              | None -> ());
              Some i
          | None -> next_task (k + 1)
        end
      in
      let wall_t0 = match stats with Some s -> s.Stats.clock () | None -> 0. in
      (* Busy time of THIS run only, so idle stays correct when the
         same Stats value accumulates across several runs. *)
      let busy_here = ref 0 in
      let rec loop () =
        if not (Atomic.get cancelled) then
          match next_task 0 with
          | None -> ()
          | Some i ->
              let t0 = match stats with Some s -> s.Stats.clock () | None -> 0. in
              (match f ~worker:w i with
              | () -> ()
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  failures.(i) <- Some (e, bt);
                  Atomic.set cancelled true);
              (match stats with
              | Some s ->
                  let dt = Stats.ns_of_seconds (s.Stats.clock () -. t0) in
                  Stats.add s.Stats.tasks_run w 1;
                  Stats.add s.Stats.busy_ns w dt;
                  busy_here := !busy_here + dt
              | None -> ());
              loop ()
      in
      loop ();
      match stats with
      | Some s ->
          let wall = Stats.ns_of_seconds (s.Stats.clock () -. wall_t0) in
          Stats.add s.Stats.idle_ns w (max 0 (wall - !busy_here))
      | None -> ()
    in
    let handles =
      Array.init (workers - 1) (fun h -> Domain.spawn (fun () -> worker (h + 1)))
    in
    worker 0;
    Array.iter Domain.join handles;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures
  end

let map ?stats t f n =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  let results = Array.make n None in
  run ?stats t (fun ~worker i -> results.(i) <- Some (f ~worker i)) n;
  Array.map (function Some v -> v | None -> assert false) results
