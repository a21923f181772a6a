(** Euclidean travelling-salesperson instances.

    Cities are points in the plane; the cost of travelling between two
    cities is their Euclidean distance.  An instance holds its
    coordinates only — O(n) memory — and every distance is computed
    where it is used. *)

type t

val create : (float * float) array -> t
(** Instance over explicit coordinates (copied).
    @raise Invalid_argument with fewer than 3 cities or a coordinate
    that is not finite (a NaN or an infinity). *)

val random_uniform : Rng.t -> n:int -> t
(** [n] cities uniform in the unit square.
    @raise Invalid_argument if [n < 3]. *)

val random_clustered : Rng.t -> n:int -> clusters:int -> spread:float -> t
(** Cities in Gaussian clusters around uniformly random centres — the
    structured workload where constructive heuristics shine.
    @raise Invalid_argument if [n < 3], [clusters < 1] or
    [spread <= 0.]. *)

val size : t -> int
val coord : t -> int -> float * float

val distance : t -> int -> int -> float
(** [sqrt (dx *. dx +. dy *. dy)] with [dx = x_i -. x_j] and
    [dy = y_i -. y_j]: symmetric bit for bit, and [0.] for [i = j]
    when the coordinates are finite. *)

type view = private {
  xs : float array;
  ys : float array;
}

val view : t -> view
(** The instance's own coordinate arrays, borrowed without a copy, so a
    kernel in another module can compute distances inline — a call to
    [distance] from outside this module returns a boxed float.  The
    arrays are shared by every holder of the instance and must never be
    written. *)
