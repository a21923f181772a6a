let of_string text =
  let lines = String.split_on_char '\n' text in
  let trim = String.trim in
  let dimension = ref None in
  let weight_type = ref None in
  let coords = ref [] in
  let in_coords = ref false in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let header_value line =
    match String.index_opt line ':' with
    | Some i -> trim (String.sub line (i + 1) (String.length line - i - 1))
    | None -> ""
  in
  List.iter
    (fun raw ->
      let line = trim raw in
      if line = "" || !error <> None then ()
      else if !in_coords then begin
        if line = "EOF" then in_coords := false
        else
          match
            String.map (fun c -> if c = '\t' then ' ' else c) line
            |> String.split_on_char ' '
            |> List.filter (fun w -> w <> "")
          with
          | [ _idx; x; y ] -> (
              match (float_of_string_opt x, float_of_string_opt y) with
              | Some x, Some y when Float.is_finite x && Float.is_finite y ->
                  coords := (x, y) :: !coords
              | _ -> fail (Printf.sprintf "malformed coordinate line: %S" line))
          | _ -> fail (Printf.sprintf "malformed coordinate line: %S" line)
      end
      else if String.length line >= 9 && String.sub line 0 9 = "DIMENSION" then
        dimension := int_of_string_opt (header_value line)
      else if String.length line >= 16 && String.sub line 0 16 = "EDGE_WEIGHT_TYPE" then
        weight_type := Some (header_value line)
      else if line = "NODE_COORD_SECTION" then in_coords := true
      else if line = "EOF" then ()
      else begin
        (* NAME, COMMENT, TYPE, and anything else with a colon are
           tolerated; unknown bare keywords are errors. *)
        match String.index_opt line ':' with
        | Some _ -> ()
        | None -> fail (Printf.sprintf "unsupported section: %S" line)
      end)
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> (
      (match !weight_type with
      | Some "EUC_2D" | None -> ()
      | Some other -> error := Some ("unsupported EDGE_WEIGHT_TYPE: " ^ other));
      match !error with
      | Some msg -> Error msg
      | None ->
          let pts = Array.of_list (List.rev !coords) in
          let n = Array.length pts in
          if n < 3 then Error "fewer than 3 cities"
          else (
            match !dimension with
            | Some d when d <> n ->
                Error (Printf.sprintf "DIMENSION %d but %d coordinates" d n)
            | Some _ | None -> Ok (Tsp_instance.create pts)))

let to_string ?(name = "instance") inst =
  let n = Tsp_instance.size inst in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "NAME : %s\n" name);
  Buffer.add_string buf "TYPE : TSP\n";
  Buffer.add_string buf (Printf.sprintf "DIMENSION : %d\n" n);
  Buffer.add_string buf "EDGE_WEIGHT_TYPE : EUC_2D\n";
  Buffer.add_string buf "NODE_COORD_SECTION\n";
  for i = 0 to n - 1 do
    let x, y = Tsp_instance.coord inst i in
    Buffer.add_string buf (Printf.sprintf "%d %.9g %.9g\n" (i + 1) x y)
  done;
  Buffer.add_string buf "EOF\n";
  Buffer.contents buf

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      (match of_string text with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
