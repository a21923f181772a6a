(** Minimal TSPLIB-format I/O for Euclidean instances.

    Supports the subset every EUC_2D benchmark file uses: the
    [NAME]/[COMMENT]/[TYPE]/[DIMENSION]/[EDGE_WEIGHT_TYPE] headers and
    a [NODE_COORD_SECTION] of [index x y] lines terminated by [EOF]
    (or an explicit [EOF] line).  Only [EDGE_WEIGHT_TYPE: EUC_2D] is
    accepted — distances here are real-valued Euclidean (TSPLIB's
    rounding convention is not applied; lengths are comparable within
    this library, not against TSPLIB optima). *)

val of_string : string -> (Tsp_instance.t, string) result
(** Parse an instance.  Every line of the coordinate section but [EOF]
    must hold an index and two finite numbers; any other (a [nan] or an
    infinite coordinate included) is an error naming it a malformed
    coordinate line. *)

val to_string : ?name:string -> Tsp_instance.t -> string
(** Render an instance in the same format ([name] defaults to
    ["instance"]). *)

val load : string -> (Tsp_instance.t, string) result
(** Read a file; errors include the path. *)
