(** Dense float matrices.

    The workhorse of the template attack (pooled covariance matrices,
    Mahalanobis scoring) and of the DBDD estimator's ellipsoid
    algebra.  Row-major [float array array]; all dimensions are
    checked. *)

type t

val create : int -> int -> t
(** Zero matrix with the given rows x cols. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val add : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t

val mul_vec : t -> float array -> float array
(** Matrix–vector product. *)

val dot : float array -> float array -> float
val axpy : float -> float array -> float array -> unit
(** [axpy a x y] sets [y <- a*x + y] in place. *)

val trace : t -> float
val frobenius : t -> float
val max_abs_diff : t -> t -> float
