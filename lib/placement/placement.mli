(** Gate-array-style placement: cells on a rows × cols grid of slots,
    minimizing total half-perimeter wirelength (HPWL).

    This is the placement formulation behind [KANG83] ("linear
    ordering and application to placement", cited in §4.1) and the
    original [KIRK83] showcase.  Each net's wire cost is the half
    perimeter of its pins' bounding box; the total is maintained
    incrementally — a swap only re-scans the nets incident to the two
    affected cells.

    Slots may be empty ([n_cells <= rows * cols]); a move exchanges the
    contents of two slots, so cells can also migrate into vacancies. *)

type t

val create : ?order:int array -> rows:int -> cols:int -> Netlist.t -> t
(** Cells placed row-major in netlist order, or in [order] (a
    permutation of the cells) when given; remaining slots stay empty.

    @raise Invalid_argument if the grid is smaller than the cell count,
    a dimension is non-positive, or [order] is not a permutation. *)

val random : Rng.t -> rows:int -> cols:int -> Netlist.t -> t
(** Cells scattered over uniformly random distinct slots. *)

val goto_seeded : rows:int -> cols:int -> Netlist.t -> t
(** The [KANG83] idea: compute the Goto linear order, then fold it
    row-major onto the grid so strongly connected cells stay close. *)

val copy : t -> t
val netlist : t -> Netlist.t
val rows : t -> int
val cols : t -> int

val slot_of : t -> int -> int * int
(** [(row, col)] of a cell. *)

val cell_at : t -> int -> int -> int option
(** Cell occupying a slot, if any. *)

val hpwl : t -> int
(** Total half-perimeter wirelength. *)

val net_hpwl : t -> int -> int
(** One net's current bounding-box half perimeter. *)

val swap_slots : t -> int -> int -> unit
(** Exchange the contents of two slots (by flat index
    [row * cols + col]); a no-op when both are empty or equal. *)

val check : t -> unit
(** Recompute all bounding boxes and compare with the incremental
    state.  @raise Failure on mismatch. *)

(** [Mc_problem.S] adapter: a move is a pair of distinct flat slot
    indices, at least one of them occupied. *)
module Problem : Mc_problem.S with type state = t and type move = int * int
