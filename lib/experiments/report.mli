(** Plain-text tables in the layout of the paper's Tables 4.1/4.2.

    A table is a list of labelled rows of cells; rendering pads columns
    so the output lines up in a terminal and in the committed
    [bench_output.txt]. *)

type cell = Int of int | Float of float | Text of string | Missing

type t = {
  title : string;
  header : string list;  (** column titles; first column is the label *)
  rows : (string * cell list) list;
  notes : string list;
}

val make :
  title:string -> header:string list -> ?notes:string list ->
  (string * cell list) list -> t

val render : t -> string
(** Multi-line rendering, trailing newline included. *)

val to_csv : t -> string
(** RFC-4180-style CSV: header row then data rows; cells containing
    commas, quotes or newlines are quoted.  Notes are not included. *)

val cell_to_string : cell -> string

val float_cells : ?decimals:int -> float list -> cell list
