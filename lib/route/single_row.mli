(** Single-row channel routing on top of a linear arrangement.

    This is the application §4.1 cites for NOLA ([RAGH84], [TING78],
    [KANG83]): once circuit elements sit in a row, each net is routed
    as a horizontal wire segment spanning its pins, and segments whose
    spans overlap need distinct tracks.  The number of tracks required
    equals the arrangement's {e density} (the intervals crossing a
    boundary form a clique, and interval graphs are perfect), which is
    exactly why the paper minimizes density.

    [assign] is the classical left-edge algorithm and always achieves
    that optimum; [verify] checks a layout independently, and the
    density theorem is exercised by the property tests. *)

type layout = {
  track_of : int array;  (** net → track index, 0-based *)
  track_count : int;
}

val assign : Arrangement.t -> layout
(** Left-edge track assignment for the arrangement's nets.  The result
    uses exactly [Arrangement.density] tracks (0 for netless
    instances). *)

val verify : Arrangement.t -> layout -> (unit, string) result
(** Check that every net has a track, no track index is out of range,
    and no two nets sharing a track overlap (share a boundary). *)

val render : Arrangement.t -> layout -> string
(** ASCII picture of the channel: one row per track, element indices
    along the bottom.  Intended for the examples; layouts wider than
    120 columns are truncated with an ellipsis. *)
