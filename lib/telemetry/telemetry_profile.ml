(* Sampling profiler over the engine span stack.

   Instead of a wall-clock timer (non-deterministic, signal-unsafe in
   multi-domain OCaml), sampling is driven by the evaluation counter:
   every [cadence]-th [Proposed] event records the current domain's
   open-span stack ([Obs.Span.stack]).  Under a fixed seed the same
   evaluations happen in the same spans, so the profile is
   reproducible run over run — and it reconciles exactly against the
   [proposed.t<i>] counters: a temperature epoch that saw [p]
   proposals owns [p / cadence] samples (±1 for phase).

   Output is Brendan Gregg's folded-stack format — one
   [frame;frame;frame count] line per distinct stack — which
   flamegraph.pl and speedscope both ingest directly. *)

type t = {
  counts : (string, int) Hashtbl.t;  (* folded stack -> samples *)
  mutable events : int;  (* Proposed events seen *)
  mutable samples : int;  (* samples taken (stack may still be empty) *)
}

let cadence = 97
let create () = { counts = Hashtbl.create 16; events = 0; samples = 0 }
let samples t = t.samples

let sample t =
  t.samples <- t.samples + 1;
  let stack =
    match Obs.Span.stack () with [] -> [ "(no span)" ] | frames -> frames
  in
  let key = String.concat ";" stack in
  Hashtbl.replace t.counts key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key))

let observer t =
  Obs.Observer.of_fun (function
    | Obs.Event.Proposed _ ->
        t.events <- t.events + 1;
        if t.events mod cadence = 0 then sample t
    | _ -> ())

(* Distinct stacks with their sample counts, sorted by stack string
   so every rendering of the same profile is byte-identical. *)
let stacks t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let folded t =
  let b = Buffer.create 256 in
  List.iter (fun (k, v) -> Printf.bprintf b "%s %d\n" k v) (stacks t);
  Buffer.contents b

let write_folded t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (folded t))
