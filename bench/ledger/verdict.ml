(* `ledger compare A.json... -- B.json...`: for each workload and
   end-to-end metric named in BENCHMARK.json, both sides' median and
   quartiles and a verdict.

   - better: B wins at least nine tenths of the (A_i, B_i) pairs, ties
     counting for neither, and the medians differ by more than A's
     quartile spread;
   - unresolved: either side's quartile spread, as a share of its
     median, is wider than the bound;
   - worse: B's median is worse than A's by more than the bound;
   - within bound: otherwise.

   Inputs are files of run documents (`--json` output or
   history.jsonl), one per line; traced runs are skipped.  Exit status
   is 0 when every row is better or within bound and no run failed an
   operation or a check. *)

type spec = { name : string; lower_better : bool; bound : float }

let parse_file path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Obs.Json.parse l with
         | Ok j -> j
         | Error e -> failwith (Printf.sprintf "%s: %s" path e))

let specs path =
  match
    Result.map (Obs.Json.member "end_to_end")
      (Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all))
  with
  | Ok (Some (Obs.Json.List ms)) ->
      List.map
        (fun m ->
          let str k = match Obs.Json.member k m with Some (Obs.Json.String s) -> s | _ -> "" in
          {
            name = str "name";
            lower_better = str "better" = "lower";
            bound = Option.value ~default:0. (Option.bind (Obs.Json.member "bound" m) Obs.Json.to_float);
          })
        ms
  | _ -> failwith (path ^ ": no end_to_end list")

type run = { workload : string; values : (string * float) list; bad : bool }

let runs paths =
  List.concat_map parse_file paths
  |> List.filter_map (fun doc ->
         let get k = Obs.Json.member k doc in
         match (get "workload", get "trace", get "metrics") with
         | Some (Obs.Json.String workload), Some (Obs.Json.Bool false), Some (Obs.Json.Obj ms) ->
             let values =
               List.filter_map
                 (fun (name, m) ->
                   Option.map (fun v -> (name, v)) (Option.bind (Obs.Json.member "value" m) Obs.Json.to_float))
                 ms
             in
             let bad =
               get "correct" <> Some (Obs.Json.Bool true)
               || Option.bind (get "failed") Obs.Json.to_int <> Some 0
             in
             Some { workload; values; bad }
         | _ -> None)

let judge spec a b =
  let qa1, ma, qa3 = Measure.quartiles a and qb1, mb, qb3 = Measure.quartiles b in
  let worse_by = (if spec.lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let better x y = if spec.lower_better then x < y else x > y in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = List.length (List.filter (fun i -> better b.(i) a.(i)) (List.init pairs Fun.id)) in
  let spread q1 q3 m = (q3 -. q1) /. Float.abs m in
  if float_of_int wins >= 0.9 *. float_of_int pairs && better mb ma && Float.abs (mb -. ma) > qa3 -. qa1
  then "better"
  else if spread qa1 qa3 ma > spec.bound || spread qb1 qb3 mb > spec.bound then "unresolved"
  else if worse_by > spec.bound then "worse"
  else "within bound"

let main args =
  let benchmark = ref "BENCHMARK.json" and a = ref [] and b = ref [] in
  let rec parse side = function
    | "--benchmark" :: f :: rest ->
        benchmark := f;
        parse side rest
    | "--" :: rest -> parse b rest
    | f :: rest ->
        side := f :: !side;
        parse side rest
    | [] -> ()
  in
  parse a args;
  if !a = [] || !b = [] then begin
    prerr_endline "usage: ledger compare [--benchmark FILE] A.json... -- B.json...";
    exit 2
  end;
  let ra = runs (List.rev !a) and rb = runs (List.rev !b) in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (ra @ rb)) in
  let ok = ref (not (List.exists (fun r -> r.bad) (ra @ rb))) in
  let show v =
    let q1, m, q3 = Measure.quartiles v in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" m q1 q3 (Array.length v)
  in
  Printf.printf "%-13s %-12s %-40s %-40s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          let pick rs =
            Array.of_list
              (List.filter_map
                 (fun r -> if r.workload = w then List.assoc_opt spec.name r.values else None)
                 rs)
          in
          let va = pick ra and vb = pick rb in
          let verdict =
            if Array.length va = 0 || Array.length vb = 0 then "missing" else judge spec va vb
          in
          if verdict <> "better" && verdict <> "within bound" then ok := false;
          Printf.printf "%-13s %-12s %-40s %-40s %s\n" w spec.name (show va) (show vb) verdict)
        (specs !benchmark))
    workloads;
  List.iter
    (fun (side, rs) ->
      List.iter
        (fun r -> if r.bad then Printf.printf "%s: a %s run failed an operation or a check\n" side r.workload)
        rs)
    [ ("A", ra); ("B", rb) ];
  exit (if !ok then 0 else 1)
