(* What every workload shares: repeated set-up, the timed loop, output
   checks, quartiles, and the result documents (the one-line summary on
   stdout and the detailed report with provenance). *)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Quartiles by the same rule as Python's
   [statistics.quantiles(data, n=4)] (method "exclusive"), so the
   spreads printed here match the ones the acceptance check computes. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (i * m / 4) (ld - 1)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median a =
  let _, m, _ = quartiles a in
  m

(* ---- checks ---- *)

type check = { what : string; ok : bool; note : string }

let checks = ref []

let expect what ok note =
  if not ok then prerr_endline (Printf.sprintf "ledger: check failed: %s: %s" what note);
  checks := { what; ok; note } :: !checks

let all_ok () = List.for_all (fun c -> c.ok) !checks

(* One check per distinct name, counting how often it ran. *)
let checks_json () =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let n, bad, note =
        Option.value (Hashtbl.find_opt tally c.what) ~default:(0, 0, "")
      in
      Hashtbl.replace tally c.what
        (n + 1, (if c.ok then bad else bad + 1), if c.ok then note else c.note))
    !checks;
  Obs.Json.List
    (Hashtbl.fold (fun what v acc -> (what, v) :: acc) tally []
    |> List.sort compare
    |> List.map (fun (what, (n, bad, note)) ->
           Obs.Json.Obj
             [
               ("check", Obs.Json.String what);
               ("runs", Obs.Json.Int n);
               ("failed", Obs.Json.Int bad);
               ("note", Obs.Json.String note);
             ]))

(* ---- set-up and the timed loop ---- *)

type sample = {
  key : int;
  evals : int;
  seconds : float;  (** wall time *)
  canary : float;  (** mean of the {!Probe.canary} times before and after *)
}

(* Time in reference seconds: wall time scaled by how slow the host
   ran, as the canary next to it saw (see {!Probe.canary}). *)
let reference s = s.seconds *. Probe.canary_ref /. s.canary

(* Times [f ()] between two canaries; [before] is a canary taken right
   before, and the one taken after is returned for the next call. *)
let timed ~label ~before f =
  let t0 = Probe.now_ns () in
  let key, evals = f () in
  let t1 = Probe.now_ns () in
  let after = Probe.canary () in
  ignore (Probe.record (Printf.sprintf "%s:%d" label key) ~t0 ~t1);
  ({ key; evals; seconds = float_of_int (t1 - t0) *. 1e-9; canary = (before +. after) /. 2. }, after)

(* The workload's [setup_s]: the median time of one call of [f] over
   seven timed batches, in reference seconds.  A set-up can take well
   under a millisecond, too short to time alone above clock and
   scheduler noise, so a batch repeats [f] for at least 100 ms; each
   starts after a full major collection, so a batch does not inherit
   the last one's garbage.  [f] must be idempotent: the run keeps using
   what the last call built. *)
let setup f =
  let canary = ref (Probe.canary ()) in
  median
    (Array.init 7 (fun _ ->
         Gc.full_major ();
         (* The batch's [evals] counts calls of [f]. *)
         let batch, after =
           timed ~label:"setup" ~before:!canary (fun () ->
               let t0 = Probe.now_ns () in
               let calls = ref 0 in
               while !calls = 0 || Probe.seconds_since t0 < 0.1 do
                 f ();
                 incr calls
               done;
               (0, !calls))
         in
         canary := after;
         reference batch /. float_of_int batch.evals))

(* Run [op k] for k = 0, 1, 2, ... in whole cycles of [cycle] ops (a
   cycle covers every distinct op once, so every run measures the same
   mix), stopping at the cycle boundary nearest [seconds], after at
   least [min_ops] ops.  [op] returns its key and the evaluations it
   did.  One canary runs between consecutive ops and serves both. *)
let loop ?(label = "op") ?(cycle = 1) ~seconds ~min_ops op =
  let start = Probe.now_ns () in
  let out = ref [] in
  let k = ref 0 in
  let canary = ref (Probe.canary ()) in
  let go_on () =
    !k < min_ops || !k mod cycle <> 0
    ||
    let elapsed = Probe.seconds_since start in
    elapsed +. (elapsed /. float_of_int (!k / cycle) /. 2.) < seconds
  in
  while go_on () do
    let s, after = timed ~label ~before:!canary (fun () -> op !k) in
    canary := after;
    out := s :: !out;
    incr k
  done;
  Array.of_list (List.rev !out)

(* One (evals, seconds) per distinct op: the median over its repeats,
   in reference seconds, or in wall seconds with [~wall:true]. *)
let per_op ?(wall = false) samples =
  let by = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let t = if wall then s.seconds else reference s in
      let evals, ts = Option.value ~default:(s.evals, []) (Hashtbl.find_opt by s.key) in
      Hashtbl.replace by s.key (evals, t :: ts))
    samples;
  Hashtbl.fold (fun _ (evals, ts) acc -> (evals, median (Array.of_list ts)) :: acc) by []

let evals_per_s ?wall samples =
  let ops = per_op ?wall samples in
  float_of_int (List.fold_left (fun acc (e, _) -> acc + e) 0 ops)
  /. List.fold_left (fun acc (_, t) -> acc +. t) 0. ops

(* Wall nanoseconds per evaluation over all samples, and the factor
   that turns them into reference nanoseconds. *)
let ns_per_eval samples =
  let e = Array.fold_left (fun acc s -> acc + s.evals) 0 samples in
  let t = Array.fold_left (fun acc s -> acc +. s.seconds) 0. samples in
  t *. 1e9 /. float_of_int e

let to_reference samples =
  Probe.canary_ref /. median (Array.map (fun s -> s.canary) samples)

(* ---- results ---- *)

type metric = { name : string; unit_ : string; value : float }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * Obs.Json.t) list;
}

let metric name unit_ value = { name; unit_; value }

(* VmHWM of this process (peak resident set), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Obs.Json.Obj
             [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.String m.unit_) ]
         ))
       ms)

let summary_line o =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (all_ok ()));
         ("attempted", Obs.Json.Int o.attempted);
         ("failed", Obs.Json.Int o.failed);
         ("metrics", metrics_json o.metrics);
       ])

(* Provenance is only gathered for the detailed report: it runs git,
   and only when the working directory is itself a checkout root. *)
let git args =
  if not (Sys.file_exists ".git") then None
  else
    let ic = Unix.open_process_args_in "git" (Array.of_list ("git" :: args)) in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None

let provenance ~seed ~trials =
  let sha, dirty =
    match git [ "rev-parse"; "HEAD" ] with
    | None -> ("unknown", false)
    | Some sha ->
        (sha, git [ "status"; "--porcelain"; "--untracked-files=no" ] <> Some "")
  in
  Obs.Json.Obj
    [
      ("git_sha", Obs.Json.String sha);
      ("git_dirty", Obs.Json.Bool dirty);
      ("host", Obs.Json.String (Unix.gethostname ()));
      ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("seed", Obs.Json.Int seed);
      ("trials", Obs.Json.Int trials);
    ]

(* The fields of a run document. *)
let report ~workload ~seed ~seconds ~trace o =
  [
    ("schema", Obs.Json.String "sa-lab/ledger-run/v1");
    ("workload", Obs.Json.String workload);
    ("trace", Obs.Json.Bool trace);
    ("seconds", Obs.Json.Float seconds);
    ("provenance", provenance ~seed ~trials:o.attempted);
    ("correct", Obs.Json.Bool (all_ok ()));
    ("attempted", Obs.Json.Int o.attempted);
    ("failed", Obs.Json.Int o.failed);
    ("metrics", metrics_json o.metrics);
    ("detail", Obs.Json.Obj o.detail);
    ("checks", checks_json ());
  ]
