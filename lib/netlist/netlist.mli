(** Circuit connectivity: [n] elements (cells, boards, chips) joined by
    multi-pin nets — a hypergraph on element indices [0 .. n-1].

    This is the substrate for the paper's two benchmark problems:
    - GOLA instances are netlists whose nets all have exactly two pins
      (a multigraph);
    - NOLA instances have general multi-pin nets.

    Values of type [t] are immutable after construction, but for one
    memo: the table of subset cuts ({!cut_table}), built on first use.
    Element↔net incidence is precomputed so that the arrangement layer
    can find the nets touched by a move in O(degree). *)

type t

val create : n_elements:int -> pins:int array array -> t
(** [create ~n_elements ~pins] builds a netlist where net [j] connects
    the elements [pins.(j)].  Every net must have at least 2 pins, all
    pin indices must lie in [0, n_elements), and a net must not list
    the same element twice.  The [pins] arrays are copied into one flat
    pin array, and the builder every netlist goes through checks each
    net in order (its size, then each pin's range in input order) and
    sorts and checks it for repeats in place.  So [create] allocates
    little beyond what the netlist keeps, and no net sorts in quadratic
    time.

    @raise Invalid_argument if any condition fails, or if [n_elements]
    is negative. *)

val n_elements : t -> int
val n_nets : t -> int

val pins : t -> int -> int array
(** [pins t j] are the elements of net [j] (fresh copy, sorted
    ascending). *)

val net_size : t -> int -> int
(** Number of pins of net [j], without allocation. *)

val iter_pins : t -> int -> (int -> unit) -> unit
(** [iter_pins t j f] applies [f] to every element of net [j], without
    allocation. *)

val incident : t -> int -> int array
(** [incident t e] are the nets containing element [e] (fresh copy). *)

val degree : t -> int -> int
(** Number of nets incident to element [e]. *)

val iter_incident : t -> int -> (int -> unit) -> unit
(** [iter_incident t e f] applies [f] to each net containing [e],
    without allocation. *)

(** {1 Flat incidence}

    The pins and the incidence lists are stored flat, each as one array
    of offsets and one array of entries, built once with the netlist.  A move
    kernel walks them with plain [for] loops: a loop that calls
    [iter_pins] / [iter_incident] pays one closure call per entry, since
    callers in another module cannot inline them. *)

type view = private {
  pin_start : int array;
      (** Length [n_nets + 1]: net [j]'s pins are
          [pins.(pin_start.(j)) .. pins.(pin_start.(j + 1) - 1)],
          ascending. *)
  pins : int array;
  inc_start : int array;
      (** Length [n_elements + 1]: element [e]'s nets are
          [incident.(inc_start.(e)) .. incident.(inc_start.(e + 1) - 1)],
          ascending. *)
  incident : int array;
}

val view : t -> view
(** The netlist's own arrays, borrowed without a copy.  They are shared
    by every holder of the netlist and must never be written. *)

(** {1 Subset cuts} *)

val cut_table : t -> Bytes.t
(** [cut_table t] holds cut(S), the number of nets with pins both in
    and out of S, for every element subset S, as a bit mask (element
    [e] is bit [e]).  Since cut(S) = cut(complement of S), only the
    [2^(n-1)] sets without element [n-1] are stored: cut(S) is the
    little-endian uint16 at byte [2 * S] for such S, and at
    [2 * (S lxor (2^n - 1))] otherwise.

    Built on the first call in O(2^n n + pins) time and kept in [t], so
    it costs nothing until an arrangement asks for it.  Domains that
    race on the first call may build it twice; all get the same bytes.
    They are borrowed and must never be written.

    @raise Invalid_argument unless [fits_cut_table t]. *)

val fits_cut_table : t -> bool
(** True iff [t] has at most 20 elements and at most 65535 nets, the
    bound of {!cut_table}. *)

val is_graph : t -> bool
(** True iff every net has exactly two pins (a GOLA instance). *)

val lightest_element : t -> int
(** The element with the fewest incident nets (smallest index on
    ties) — the starting point of the Goto heuristic. *)

val equal : t -> t -> bool
(** Structural equality (same element count and pin sets). *)

(** {1 Random instance generators (paper §4.2.1 / §4.3.1)} *)

val random_gola : Rng.t -> elements:int -> nets:int -> t
(** Random two-pin instance: each net joins a uniformly random distinct
    pair ({!Rng.pair_distinct}), drawn straight into the netlist's flat
    pin array.  Paper test set: [~elements:15 ~nets:150].
    @raise Invalid_argument if [elements < 2] or [nets < 0]. *)

val random_nola :
  Rng.t -> elements:int -> nets:int -> min_pins:int -> max_pins:int -> t
(** Random multi-pin instance: each net's pin count is uniform on
    [min_pins, max_pins] and its pins a uniform random subset, drawn by
    {!Rng.sample_into} straight into the netlist's flat pin array
    through one {!Rng.sampler} for the whole netlist.  The draws are
    those of {!Rng.sample_without_replacement} net by net.  Set-up
    allocates about 4 words per pin, where the netlist keeps about 2.
    @raise Invalid_argument if [min_pins < 2], [max_pins < min_pins],
    [max_pins > elements] or [nets < 0]. *)

(** {1 Textual format}

    Line-oriented:
    {v
    netlist <n_elements> <n_nets>
    net <pin> <pin> ...
    v}
    [#]-prefixed lines and blank lines are ignored. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the textual format; [Error msg] describes the first
    malformed line. *)
