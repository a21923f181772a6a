(* Observability layer: events, observers, metrics, sinks.  See the
   interface for the taxonomy; the design constraint throughout is that
   the null-observer path costs engines one branch per event site and
   never allocates. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* Shortest representation that round-trips: try %.15g first. *)
  let float_to_string f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let escape_to buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s ->
        Buffer.add_char buf '"';
        escape_to buf s;
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            write buf v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape_to buf k;
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 128 in
    write buf v;
    Buffer.contents buf

  exception Fail of string

  let parse text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub text !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail ("invalid literal, expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        let c = text.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape"
           else
             let e = text.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
                 if !pos + 4 > n then fail "truncated \\u escape";
                 let hex = String.sub text !pos 4 in
                 pos := !pos + 4;
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with Failure _ -> fail "invalid \\u escape"
                 in
                 (* Encode the code point as UTF-8 (BMP only; our
                    writer never emits surrogate pairs). *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                   Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
             | _ -> fail "invalid escape");
          loop ()
        end
        else begin
          Buffer.add_char buf c;
          loop ()
        end
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let numeric = ref false in
      let is_int = ref true in
      let rec scan () =
        match peek () with
        | Some (('0' .. '9' | '-' | '+') as c) ->
            if c <> '-' && c <> '+' then numeric := true;
            advance ();
            scan ()
        | Some (('.' | 'e' | 'E') as c) ->
            ignore c;
            is_int := false;
            advance ();
            scan ()
        | _ -> ()
      in
      scan ();
      let s = String.sub text start (!pos - start) in
      if not !numeric then fail "invalid number";
      if !is_int then
        match int_of_string_opt s with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt s with
            | Some f -> Float f
            | None -> fail "invalid number")
      else
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "invalid number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items []
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing content";
      v
    with
    | v -> Ok v
    | exception Fail msg -> Error msg

  let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

  let to_float = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None

  let to_int = function Int i -> Some i | _ -> None
end

module Event = struct
  type accept_kind = Improving | Lateral | Uphill

  type t =
    | Run_start of { cost : float }
    | Proposed of { evaluation : int; cost : float }
    | Accepted of { kind : accept_kind; cost : float; delta : float }
    | Rejected of { delta : float }
    | New_best of { evaluation : int; cost : float }
    | Temp_advance of { temp : int; y : float }
    | Descent_done of { cost : float; evaluations : int }
    | Span of { name : string; seconds : float }
    | Run_end of {
        evaluations : int;
        final_cost : float;
        best_cost : float;
        seconds : float;
      }
    | Checkpoint_written of { path : string; evaluation : int }
    | Retry of { label : string; attempt : int; delay : float; reason : string }
    | Quarantined of { label : string; attempts : int; reason : string }
    | Rung_standing of {
        rung : int;
        label : string;
        best_cost : float;
        evaluations : int;
        culled : bool;
      }

  let kind_name = function
    | Improving -> "improving"
    | Lateral -> "lateral"
    | Uphill -> "uphill"

  let kind_of_name = function
    | "improving" -> Some Improving
    | "lateral" -> Some Lateral
    | "uphill" -> Some Uphill
    | _ -> None

  let to_json ev =
    let open Json in
    match ev with
    | Run_start { cost } -> Obj [ ("ev", String "run_start"); ("cost", Float cost) ]
    | Proposed { evaluation; cost } ->
        Obj [ ("ev", String "proposed"); ("n", Int evaluation); ("cost", Float cost) ]
    | Accepted { kind; cost; delta } ->
        Obj
          [
            ("ev", String "accepted");
            ("kind", String (kind_name kind));
            ("cost", Float cost);
            ("delta", Float delta);
          ]
    | Rejected { delta } -> Obj [ ("ev", String "rejected"); ("delta", Float delta) ]
    | New_best { evaluation; cost } ->
        Obj [ ("ev", String "new_best"); ("n", Int evaluation); ("cost", Float cost) ]
    | Temp_advance { temp; y } ->
        Obj [ ("ev", String "temp_advance"); ("temp", Int temp); ("y", Float y) ]
    | Descent_done { cost; evaluations } ->
        Obj [ ("ev", String "descent_done"); ("cost", Float cost); ("n", Int evaluations) ]
    | Span { name; seconds } ->
        Obj [ ("ev", String "span"); ("name", String name); ("seconds", Float seconds) ]
    | Run_end { evaluations; final_cost; best_cost; seconds } ->
        Obj
          [
            ("ev", String "run_end");
            ("n", Int evaluations);
            ("final_cost", Float final_cost);
            ("best_cost", Float best_cost);
            ("seconds", Float seconds);
          ]
    | Checkpoint_written { path; evaluation } ->
        Obj [ ("ev", String "checkpoint"); ("path", String path); ("n", Int evaluation) ]
    | Retry { label; attempt; delay; reason } ->
        Obj
          [
            ("ev", String "retry");
            ("label", String label);
            ("attempt", Int attempt);
            ("delay", Float delay);
            ("reason", String reason);
          ]
    | Quarantined { label; attempts; reason } ->
        Obj
          [
            ("ev", String "quarantined");
            ("label", String label);
            ("attempts", Int attempts);
            ("reason", String reason);
          ]
    | Rung_standing { rung; label; best_cost; evaluations; culled } ->
        Obj
          [
            ("ev", String "rung_standing");
            ("rung", Int rung);
            ("label", String label);
            ("best_cost", Float best_cost);
            ("n", Int evaluations);
            ("culled", Bool culled);
          ]

  exception Bad of string

  let of_json json =
    let get name =
      match Json.member name json with
      | Some v -> v
      | None -> raise (Bad ("missing field " ^ name))
    in
    let fnum name =
      match Json.to_float (get name) with
      | Some f -> f
      | None -> raise (Bad ("field " ^ name ^ " is not a number"))
    in
    let inum name =
      match Json.to_int (get name) with
      | Some i -> i
      | None -> raise (Bad ("field " ^ name ^ " is not an integer"))
    in
    let str name =
      match get name with
      | Json.String s -> s
      | _ -> raise (Bad ("field " ^ name ^ " is not a string"))
    in
    let bool name =
      match get name with
      | Json.Bool b -> b
      | _ -> raise (Bad ("field " ^ name ^ " is not a boolean"))
    in
    match
      match str "ev" with
      | "run_start" -> Run_start { cost = fnum "cost" }
      | "proposed" ->
          Proposed { evaluation = inum "n"; cost = fnum "cost" }
      | "accepted" ->
          let kind =
            match kind_of_name (str "kind") with
            | Some k -> k
            | None -> raise (Bad "unknown acceptance kind")
          in
          Accepted { kind; cost = fnum "cost"; delta = fnum "delta" }
      | "rejected" -> Rejected { delta = fnum "delta" }
      | "new_best" -> New_best { evaluation = inum "n"; cost = fnum "cost" }
      | "temp_advance" -> Temp_advance { temp = inum "temp"; y = fnum "y" }
      | "descent_done" -> Descent_done { cost = fnum "cost"; evaluations = inum "n" }
      | "span" -> Span { name = str "name"; seconds = fnum "seconds" }
      | "run_end" ->
          Run_end
            {
              evaluations = inum "n";
              final_cost = fnum "final_cost";
              best_cost = fnum "best_cost";
              seconds = fnum "seconds";
            }
      | "checkpoint" ->
          Checkpoint_written { path = str "path"; evaluation = inum "n" }
      | "retry" ->
          Retry
            {
              label = str "label";
              attempt = inum "attempt";
              delay = fnum "delay";
              reason = str "reason";
            }
      | "quarantined" ->
          Quarantined
            { label = str "label"; attempts = inum "attempts"; reason = str "reason" }
      | "rung_standing" ->
          Rung_standing
            {
              rung = inum "rung";
              label = str "label";
              best_cost = fnum "best_cost";
              evaluations = inum "n";
              culled = bool "culled";
            }
      | other -> raise (Bad ("unknown event " ^ other))
    with
    | ev -> Ok ev
    | exception Bad msg -> Error msg
end

module Observer = struct
  type t = Null | Fn of (Event.t -> unit)

  let null = Null
  let of_fun f = Fn f
  let enabled = function Null -> false | Fn _ -> true
  let emit o ev = match o with Null -> () | Fn f -> f ev

  let tee observers =
    match List.filter enabled observers with
    | [] -> Null
    | [ o ] -> o
    | many -> Fn (fun ev -> List.iter (fun o -> emit o ev) many)

  (* The bundled sinks are single-domain; when several domains share
     one observer, each event must arrive whole.  The interleaving
     across domains remains scheduling-dependent — serialization
     protects the sink, not the order. *)
  let serialized o =
    match o with
    | Null -> Null
    | Fn f ->
        let lock = Mutex.create () in
        Fn
          (fun ev ->
            Mutex.lock lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock lock)
              (fun () -> f ev))
end

let null = Observer.null
let now () = Unix.gettimeofday ()

module Trajectory = struct
  type t = {
    capacity : int;
    indices : int array;
    costs : float array;
    mutable len : int;
    mutable stride : int;
    mutable count : int;
    mutable minimum : float;
  }

  let create capacity =
    let capacity = max 2 capacity in
    {
      capacity;
      indices = Array.make capacity 0;
      costs = Array.make capacity 0.;
      len = 0;
      stride = 1;
      count = 0;
      minimum = infinity;
    }

  (* Keep every even-position sample and double the stride: the
     retained series stays evenly spaced over the whole run. *)
  let compact t =
    let kept = ref 0 in
    for i = 0 to t.len - 1 do
      if i land 1 = 0 then begin
        t.indices.(!kept) <- t.indices.(i);
        t.costs.(!kept) <- t.costs.(i);
        incr kept
      end
    done;
    t.len <- !kept;
    t.stride <- t.stride * 2

  let record t cost =
    if cost < t.minimum then t.minimum <- cost;
    if t.count mod t.stride = 0 then begin
      if t.len = t.capacity then compact t;
      (* After compaction the current count may no longer be on the new
         stride grid; keep it anyway - one off-grid point does not bend
         the series. *)
      t.indices.(t.len) <- t.count;
      t.costs.(t.len) <- cost;
      t.len <- t.len + 1
    end;
    t.count <- t.count + 1

  let count t = t.count
  let stride t = t.stride
  let series t = Array.init t.len (fun i -> (t.indices.(i), t.costs.(i)))

  let minimum t =
    if t.count = 0 then invalid_arg "Obs.Trajectory.minimum: empty recorder";
    t.minimum

  let observer t =
    Observer.of_fun (function
      | Event.Run_start { cost } | Event.Proposed { cost; _ } -> record t cost
      | _ -> ())
end

module Jsonl = struct
  let observer oc =
    Observer.of_fun (fun ev ->
        output_string oc (Json.to_string (Event.to_json ev));
        output_char oc '\n';
        match ev with Event.Run_end _ -> flush oc | _ -> ())

  let with_file path f =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (observer oc))

  let read_file path =
    match open_in path with
    | exception Sys_error msg -> Error msg
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec loop lineno acc =
              match input_line ic with
              | exception End_of_file -> Ok (List.rev acc)
              | "" -> loop (lineno + 1) acc
              | line -> (
                  match Json.parse line with
                  | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)
                  | Ok json -> (
                      match Event.of_json json with
                      | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg)
                      | Ok ev -> loop (lineno + 1) (ev :: acc)))
            in
            loop 1 [])
end

module Downsample = struct
  let observer ?(capacity = 512) inner =
    if capacity < 2 then invalid_arg "Obs.Downsample.observer: capacity < 2";
    let stride = ref 1 in
    let count = ref 0 in
    let forwarded = ref 0 in
    Observer.of_fun (fun ev ->
        match ev with
        | Event.Proposed _ ->
            if !count mod !stride = 0 then begin
              if !forwarded >= capacity then begin
                stride := !stride * 2;
                forwarded := 0
              end;
              if !count mod !stride = 0 then begin
                Observer.emit inner ev;
                incr forwarded
              end
            end;
            incr count
        | ev -> Observer.emit inner ev)
end

module Log_hist = struct
  type t = {
    base : float;
    log_base : float;
    counts : (int, int) Hashtbl.t;
    mutable underflow : int;
    online : Stats.Online.t;
  }

  let create ?(base = 2.) () =
    if not (Float.is_finite base) || base <= 1. then
      invalid_arg "Obs.Log_hist.create: base must be finite and > 1";
    {
      base;
      log_base = Float.log base;
      counts = Hashtbl.create 16;
      underflow = 0;
      online = Stats.Online.create ();
    }

  let base t = t.base

  let bucket_index ~base v =
    let r = Float.log v /. Float.log base in
    let n = Float.round r in
    (* Snap exact powers of the base onto their own bucket despite the
       rounding of the float logarithm. *)
    if Float.abs (r -. n) < 1e-9 then int_of_float n
    else int_of_float (Float.floor r)

  let add t v =
    if Float.is_finite v && v > 0. then begin
      let i = bucket_index ~base:t.base v in
      Hashtbl.replace t.counts i
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts i));
      Stats.Online.add t.online v
    end
    else t.underflow <- t.underflow + 1

  let count t = Stats.Online.count t.online
  let underflow t = t.underflow
  let bounds t i = (Float.pow t.base (float_of_int i), Float.pow t.base (float_of_int (i + 1)))

  let buckets t =
    Hashtbl.fold (fun i c acc -> (i, c) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let merge a b =
    if a.base <> b.base then invalid_arg "Obs.Log_hist.merge: different bases";
    let t = create ~base:a.base () in
    let blend src =
      Hashtbl.iter
        (fun i c ->
          Hashtbl.replace t.counts i
            (c + Option.value ~default:0 (Hashtbl.find_opt t.counts i)))
        src.counts
    in
    blend a;
    blend b;
    t.underflow <- a.underflow + b.underflow;
    let merged = Stats.Online.merge a.online b.online in
    (* Rebuild the online accumulator state by substitution: Online.t is
       opaque, so transfer via a merged copy. *)
    { t with online = merged }

  let mean t = Stats.Online.mean t.online
  let stddev t = Stats.Online.stddev t.online

  let to_json t =
    let open Json in
    Obj
      [
        ("base", Float t.base);
        ("count", Int (count t));
        ("underflow", Int t.underflow);
        ("mean", Float (mean t));
        ("stddev", Float (stddev t));
        ( "buckets",
          List
            (List.map
               (fun (i, c) ->
                 let lo, hi = bounds t i in
                 Obj [ ("lo", Float lo); ("hi", Float hi); ("count", Int c) ])
               (buckets t)) );
      ]
end

module Metrics = struct
  type metric =
    | Counter of int ref
    | Gauge of float ref
    | Hist of Log_hist.t

  type t = { table : (string, metric) Hashtbl.t }

  let create () = { table = Hashtbl.create 32 }

  let kind_name = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Hist _ -> "histogram"

  let find_or_add t name make =
    match Hashtbl.find_opt t.table name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add t.table name m;
        m

  let wrong_kind op name m =
    invalid_arg
      (Printf.sprintf "Obs.Metrics.%s: %s is a %s" op name (kind_name m))

  let incr ?(by = 1) t name =
    match find_or_add t name (fun () -> Counter (ref 0)) with
    | Counter r -> r := !r + by
    | m -> wrong_kind "incr" name m

  let set_gauge t name v =
    match find_or_add t name (fun () -> Gauge (ref v)) with
    | Gauge r -> r := v
    | m -> wrong_kind "set_gauge" name m

  let observe ?base t name v =
    match find_or_add t name (fun () -> Hist (Log_hist.create ?base ())) with
    | Hist h -> Log_hist.add h v
    | m -> wrong_kind "observe" name m

  let counter t name =
    match Hashtbl.find_opt t.table name with Some (Counter r) -> !r | _ -> 0

  let gauge t name =
    match Hashtbl.find_opt t.table name with Some (Gauge r) -> Some !r | _ -> None

  let histogram t name =
    match Hashtbl.find_opt t.table name with Some (Hist h) -> Some h | _ -> None

  let names t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

  (* Fold [src] into [into]: counters add, histograms combine through
     [Log_hist.merge] (whose moments use the Stats.Online.merge
     algebra), gauges last-write-wins — the telemetry layer keeps
     per-shard gauges apart precisely because no cross-shard gauge
     combination is canonical. *)
  let merge_into ~into src =
    List.iter
      (fun name ->
        match Hashtbl.find src.table name with
        | Counter r -> incr ~by:!r into name
        | Gauge r -> set_gauge into name !r
        | Hist h -> (
            match Hashtbl.find_opt into.table name with
            | None ->
                Hashtbl.add into.table name
                  (Hist (Log_hist.merge h (Log_hist.create ~base:(Log_hist.base h) ())))
            | Some (Hist h0) -> Hashtbl.replace into.table name (Hist (Log_hist.merge h0 h))
            | Some m -> wrong_kind "merge_into" name m))
      (names src)

  let observer t =
    let temp = ref 1 in
    Observer.of_fun (fun ev ->
        match ev with
        | Event.Run_start { cost } -> set_gauge t "initial_cost" cost
        | Event.Proposed _ ->
            incr t "proposed";
            incr t (Printf.sprintf "proposed.t%d" !temp)
        | Event.Accepted { kind; delta; _ } ->
            incr t
              (match kind with
              | Event.Improving -> "accepted.improving"
              | Event.Lateral -> "accepted.lateral"
              | Event.Uphill -> "accepted.uphill");
            incr t (Printf.sprintf "accepted.t%d" !temp);
            if kind = Event.Uphill then observe t "uphill_delta" delta
        | Event.Rejected _ -> incr t "rejected"
        | Event.New_best { evaluation; cost } ->
            incr t "new_best";
            set_gauge t "best_cost" cost;
            set_gauge t "best_evaluation" (float_of_int evaluation)
        | Event.Temp_advance { temp = k; _ } ->
            temp := k;
            incr t "temp_advance"
        | Event.Descent_done _ -> incr t "descents"
        | Event.Span { name; seconds } -> observe t ("span." ^ name) seconds
        | Event.Run_end { evaluations; final_cost; best_cost; seconds } ->
            set_gauge t "final_cost" final_cost;
            set_gauge t "best_cost" best_cost;
            set_gauge t "run_seconds" seconds;
            if seconds > 0. then
              set_gauge t "evals_per_sec" (float_of_int evaluations /. seconds)
        | Event.Checkpoint_written _ -> incr t "checkpoints"
        | Event.Retry _ -> incr t "retries"
        | Event.Quarantined _ -> incr t "quarantined"
        | Event.Rung_standing _ -> incr t "rung_standings")

  (* Recover (temp, accepted, proposed) rows from the per-temperature
     counter names. *)
  let acceptance_by_temp t =
    let parse prefix name =
      let pl = String.length prefix in
      if String.length name > pl && String.sub name 0 pl = prefix then
        int_of_string_opt (String.sub name pl (String.length name - pl))
      else None
    in
    let temps = Hashtbl.create 8 in
    Hashtbl.iter
      (fun name _ ->
        match parse "proposed.t" name with
        | Some k -> Hashtbl.replace temps k ()
        | None -> (
            match parse "accepted.t" name with
            | Some k -> Hashtbl.replace temps k ()
            | None -> ()))
      t.table;
    Hashtbl.fold (fun k () acc -> k :: acc) temps []
    |> List.sort compare
    |> List.map (fun k ->
           ( k,
             counter t (Printf.sprintf "accepted.t%d" k),
             counter t (Printf.sprintf "proposed.t%d" k) ))

  let to_json t =
    Json.Obj
      (List.map
         (fun name ->
           ( name,
             match Hashtbl.find t.table name with
             | Counter r -> Json.Int !r
             | Gauge r -> Json.Float !r
             | Hist h -> Log_hist.to_json h ))
         (names t))

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    List.iteri
      (fun i name ->
        if i > 0 then Format.fprintf ppf "@,";
        match Hashtbl.find t.table name with
        | Counter r -> Format.fprintf ppf "counter  %-24s %12d" name !r
        | Gauge r -> Format.fprintf ppf "gauge    %-24s %12g" name !r
        | Hist h ->
            Format.fprintf ppf "hist     %-24s n=%d mean=%.3g stddev=%.3g" name
              (Log_hist.count h) (Log_hist.mean h) (Log_hist.stddev h);
            List.iter
              (fun (i, c) ->
                let lo, hi = Log_hist.bounds h i in
                Format.fprintf ppf " [%g,%g):%d" lo hi c)
              (Log_hist.buckets h))
      (names t);
    (match acceptance_by_temp t with
    | [] -> ()
    | rows ->
        Format.fprintf ppf "@,acceptance ratio by temperature:";
        List.iter
          (fun (k, accepted, proposed) ->
            Format.fprintf ppf "@,  t%-3d %6d / %-8d %s" k accepted proposed
              (if proposed = 0 then "-"
               else Printf.sprintf "%.3f" (float_of_int accepted /. float_of_int proposed)))
          rows);
    Format.fprintf ppf "@]"
end

module Span = struct
  type t = { name : string; t0 : float; live : bool }

  (* Per-domain stack of currently-open span names, innermost first.
     Domain-local storage keeps concurrent engine runs (one per pool
     worker) from seeing each other's frames; within a domain, engine
     runs are sequential, so enter/exit pairs nest properly.  The
     sampling profiler reads this stack — it costs nothing unless a
     span is actually entered (i.e. an observer is attached). *)
  let stack_key : string list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let enter obs name =
    if Observer.enabled obs then begin
      let st = Domain.DLS.get stack_key in
      st := name :: !st;
      { name; t0 = now (); live = true }
    end
    else { name; t0 = 0.; live = false }

  (* Named [close] internally so the bare call below cannot be mistaken
     for Stdlib.exit (which sa-lint bans in library code); the public
     name stays [exit] to pair with [enter]. *)
  let close obs t =
    if t.live then begin
      let st = Domain.DLS.get stack_key in
      (match !st with
      | top :: rest when String.equal top t.name -> st := rest
      | _ -> ());
      Observer.emit obs (Event.Span { name = t.name; seconds = now () -. t.t0 })
    end

  let exit = close

  let stack () = List.rev !(Domain.DLS.get stack_key)
  let depth () = List.length !(Domain.DLS.get stack_key)

  (* Pop (without emitting) down to a previously-recorded depth: the
     engines call this on abnormal exit so an aborted run cannot leak
     frames into whatever runs next on the same domain. *)
  let unwind_to n =
    let st = Domain.DLS.get stack_key in
    let rec drop l = if List.length l <= max 0 n then l else drop (List.tl l) in
    st := drop !st
end
