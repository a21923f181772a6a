(* The typed rule family: policy enforcement over the inferred effect
   sets of the whole-program call graph.  Each diagnostic carries the
   witnessing call path as trace frames, so a finding three calls deep
   reads as a story, not an accusation. *)

let mk ~rule ~file ~line ~col message trace =
  {
    Lint_diagnostic.rule = rule.Lint_rule.name;
    severity = rule.Lint_rule.severity;
    file;
    line;
    col;
    end_line = line;
    end_col = col;
    message;
    trace;
  }

(* Trace frames for a witness chain: one frame per definition on the
   path (skipping [top] itself — the diagnostic already points there),
   then the primitive use as the final frame, located in the file of
   the definition that contains it. *)
let frames program ~top ~top_file chain (prim : Effects.prim) =
  let def_file key fallback =
    match Callgraph.find_def program key with
    | Some d -> d.Callgraph.file
    | None -> fallback
  in
  let rec go fallback = function
    | [] ->
        [
          {
            Lint_diagnostic.symbol = prim.name;
            file = fallback;
            line = prim.line;
            col = prim.col;
          };
        ]
    | key :: rest ->
        let frame =
          match Callgraph.find_def program key with
          | Some d ->
              Some
                {
                  Lint_diagnostic.symbol = key;
                  file = d.Callgraph.file;
                  line = d.line;
                  col = d.col;
                }
          | None ->
              Some { Lint_diagnostic.symbol = key; file = fallback; line = 0; col = 0 }
        in
        let fallback = def_file key fallback in
        (match frame with Some f -> [ f ] | None -> []) @ go fallback rest
  in
  let chain = match chain with k :: rest when k = top -> rest | c -> c in
  go top_file chain

(* One diagnostic per (sink definition, effect) pair. *)
let sink_rule ~name ~severity ~doc ~explain ~mask ~describe =
  let rec rule =
    {
      Lint_rule.name;
      severity;
      doc;
      explain;
      check = Lint_rule.Typed (fun ~policy program -> check ~policy program);
    }
  and check ~policy program =
    let info = Callgraph.effect_info program in
    List.filter_map
      (fun (d : Callgraph.def) ->
        match Effects.trace info d.key ~mask with
        | None -> None
        | Some (chain, prim) ->
            Some
              (mk ~rule ~file:d.file ~line:d.line ~col:d.col
                 (describe ~def:d.key ~prim:prim.Effects.name)
                 (frames program ~top:d.key ~top_file:d.file chain prim)))
      (Callgraph.sink_defs ~policy program)
  in
  rule

let wallclock_in_report =
  sink_rule ~name:"typed-wallclock-in-report"
    ~severity:Lint_diagnostic.Error
    ~doc:
      "a report/checkpoint/JSON sink whose value can depend on the wall \
       clock: derived artifacts must be a pure function of recorded run data"
    ~explain:
      "Report builders, checkpoint writers and JSON emitters are the \
       artifacts the paper's tables are rebuilt from; if one can read the \
       wall clock (Unix.gettimeofday, Sys.time, ...), two replays of the \
       same run data disagree. The rule follows calls through the .cmt \
       call graph, so a clock read three helpers deep is still found — the \
       trace names each hop. Timestamps belong in the run record, stamped \
       once at the boundary, not computed at emission time."
    ~mask:Effects.wallclock
    ~describe:(fun ~def ~prim ->
      Printf.sprintf
        "%s can read the wall clock (%s): report artifacts must be a pure \
         function of recorded run data"
        def prim)

let ambient_random_in_report =
  sink_rule ~name:"typed-ambient-random-in-report"
    ~severity:Lint_diagnostic.Error
    ~doc:
      "a report/checkpoint/JSON sink that can draw from ambient RNG state \
       not threaded from a split Rng stream"
    ~explain:
      "An RNG draw inside a report path means the emitted artifact depends \
       on global generator state — on how many draws every other component \
       made first — so it is unreproducible even with the run seed in hand. \
       The rule finds draws reachable through any call chain from a sink \
       definition. If a report genuinely needs randomness (subsampling, \
       jitter), thread a split Rng.t from the run record."
    ~mask:Effects.ambient_random
    ~describe:(fun ~def ~prim ->
      Printf.sprintf
        "%s can draw from ambient RNG state (%s): emitted artifacts would \
         depend on global generator position"
        def prim)

(* Pool-task rules: one diagnostic per offending (site, reference) or
   direct in-argument primitive. *)
let worker_rule ~name ~severity ~doc ~explain ~mask ~direct_hit ~describe_direct
    ~describe_ref =
  let rec rule =
    {
      Lint_rule.name;
      severity;
      doc;
      explain;
      check = Lint_rule.Typed (fun ~policy program -> check ~policy program);
    }
  and check ~policy:_ program =
    let info = Callgraph.effect_info program in
    List.concat_map
      (fun (s : Callgraph.pool_site) ->
        let direct =
          List.filter_map
            (fun (p : Effects.prim) ->
              if direct_hit p then
                Some
                  (mk ~rule ~file:s.file ~line:s.line ~col:s.col
                     (describe_direct ~callee:s.callee ~prim:p.name)
                     [
                       {
                         Lint_diagnostic.symbol = p.name;
                         file = s.file;
                         line = p.line;
                         col = p.col;
                       };
                     ])
              else None)
            s.site_prims
        in
        let via_calls =
          List.filter_map
            (fun r ->
              match Effects.trace info r ~mask with
              | None -> None
              | Some (chain, prim) ->
                  Some
                    (mk ~rule ~file:s.file ~line:s.line ~col:s.col
                       (describe_ref ~callee:s.callee ~ref_:r
                          ~prim:prim.Effects.name)
                       (frames program ~top:"" ~top_file:s.file chain prim)))
            (List.sort_uniq compare s.refs)
        in
        direct @ via_calls)
      (Callgraph.pool_sites program)
  in
  rule

let blocking_io_in_worker =
  worker_rule ~name:"typed-blocking-io-in-worker"
    ~severity:Lint_diagnostic.Error
    ~doc:
      "a Pool task that can reach blocking IO, directly or through any \
       call chain"
    ~explain:
      "Flags blocking IO written directly inside a Pool.run/map task \
       closure, and walks the .cmt call graph for the rest: every \
       module-level value referenced inside the closure is checked for an \
       inferred Blocking_io effect, however many calls deep, and the \
       diagnostic's trace shows the path. A \
       blocked worker domain stalls every task queued behind it, skewing \
       racing budgets — collect results in the task and do IO on the \
       caller's domain."
    ~mask:Effects.blocking_io
    ~direct_hit:(fun p -> p.Effects.kind = Effects.Blocking_io)
    ~describe_direct:(fun ~callee ~prim ->
      Printf.sprintf "task passed to %s blocks in %s" callee prim)
    ~describe_ref:(fun ~callee ~ref_ ~prim ->
      Printf.sprintf "task passed to %s can reach blocking IO via %s (%s)"
        callee ref_ prim)

let unsync_mutable_in_worker =
  worker_rule ~name:"typed-unsync-mutable-in-worker"
    ~severity:Lint_diagnostic.Warning
    ~doc:
      "race heuristic: a Pool task that can write module-level mutable \
       state without Mutex.protect or Atomic"
    ~explain:
      "Pool tasks run on separate domains. A write to module-level mutable \
       state (a toplevel ref, Hashtbl, mutable field) reachable from a task \
       closure is a data-race candidate unless the write goes through \
       Atomic or happens inside Mutex.protect — the two synchronizations \
       the extractor recognizes. The check is a heuristic in both \
       directions: a lock taken by a caller it cannot see yields a false \
       positive (suppress with a directive and a comment), and aliasing it \
       cannot see yields a false negative. The trace shows the call path \
       from the task to the write."
    ~mask:Effects.unsync_mutable
    ~direct_hit:(fun p ->
      p.Effects.kind = Effects.Global_mutable && not p.Effects.synced)
    ~describe_direct:(fun ~callee ~prim ->
      Printf.sprintf
        "task passed to %s performs unsynchronized %s shared across domains"
        callee prim)
    ~describe_ref:(fun ~callee ~ref_ ~prim ->
      Printf.sprintf
        "task passed to %s can reach an unsynchronized write via %s (%s): \
         guard it with Mutex.protect or use Atomic"
        callee ref_ prim)

let builtin () =
  [
    blocking_io_in_worker;
    wallclock_in_report;
    ambient_random_in_report;
    unsync_mutable_in_worker;
  ]

let register_builtin () = List.iter Lint_rule.register (builtin ())
