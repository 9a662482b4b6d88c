(** Dense float matrices.

    The workhorse of template building (pooled covariance matrices,
    their inverses and log-determinants, PCA subspaces); scoring runs
    on the flat {!Fmat} copies.  The DBDD estimator is diagonal and
    uses none of it — only its full-matrix test oracle
    ([test/dbdd_full.ml]) does.  Row-major [float array array]; all
    dimensions are checked. *)

type t

val create : int -> int -> t
(** Zero matrix with the given rows x cols. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_arrays : float array array -> t
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
