(** Flat row-major Float64 matrices: the dense-kernel companion to
    {!Fvec}, replacing {!Matrix}'s array-of-rows layout (one pointer
    chase per row) on scoring hot paths.  Conversion preserves values
    exactly, and {!quadratic_form} replicates the accumulation order
    of [Matrix.dot d (Matrix.mul_vec m d)] bit for bit. *)

type t

val of_matrix : Matrix.t -> t

val to_arrays : t -> float array array
(** The rows as fresh arrays, in order:
    [of_matrix (Matrix.of_arrays (to_arrays t))] equals [t]. *)

(** [quadratic_form t d = d^T t d], fused, in the exact accumulation
    order of [Matrix.dot d (Matrix.mul_vec t d)] — the Mahalanobis
    inner loop. *)
val quadratic_form : t -> Fvec.t -> float
