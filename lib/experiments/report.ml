type cell = Int of int | Float of float | Text of string | Missing

type t = {
  title : string;
  header : string list;
  rows : (string * cell list) list;
  notes : string list;
}

let make ~title ~header ?(notes = []) rows = { title; header; rows; notes }

let cell_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.1f" f
  | Text s -> s
  | Missing -> "-"

let float_cells ?(decimals = 1) xs =
  List.map (fun f -> Text (Printf.sprintf "%.*f" decimals f)) xs

let csv_escape s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 1024 in
  let emit row =
    Buffer.add_string buf (String.concat "," (List.map csv_escape row));
    Buffer.add_char buf '\n'
  in
  emit t.header;
  List.iter (fun (label, cells) -> emit (label :: List.map cell_to_string cells)) t.rows;
  Buffer.contents buf

let render t =
  let buf = Buffer.create 1024 in
  let all_rows =
    t.header :: List.map (fun (label, cells) -> label :: List.map cell_to_string cells) t.rows
  in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all_rows in
  let widths = Array.make n_cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i s -> if String.length s > widths.(i) then widths.(i) <- String.length s) row)
    all_rows;
  let pad i s =
    let missing = widths.(i) - String.length s in
    if i = 0 then s ^ String.make missing ' ' else String.make missing ' ' ^ s
  in
  let emit_row row =
    Buffer.add_string buf
      (String.concat "  " (List.mapi pad row));
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length t.title) '=');
  Buffer.add_char buf '\n';
  emit_row t.header;
  Buffer.add_string buf
    (String.concat "  " (Array.to_list (Array.mapi (fun _ w -> String.make w '-') widths)));
  Buffer.add_char buf '\n';
  List.iter (fun (label, cells) -> emit_row (label :: List.map cell_to_string cells)) t.rows;
  List.iter
    (fun note ->
      Buffer.add_string buf ("  note: " ^ note);
      Buffer.add_char buf '\n')
    t.notes;
  Buffer.contents buf
