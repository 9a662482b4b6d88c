(** Numerical linear algebra on {!Matrix.t}.

    Everything the template attack and the DBDD estimator need:
    inverses and log-determinants by LU factorisation with partial
    pivoting, and the symmetric eigendecomposition behind PCA.
    Log-determinants matter because DBDD tracks the log-volume of an
    ellipsoid whose determinant under/overflows any float after a few
    hundred hints. *)

exception Singular
(** Raised when the LU factorisation meets a (numerically) singular
    matrix. *)

val inverse : Matrix.t -> Matrix.t
(** A^-1, one LU solve per column of the identity.
    @raise Singular on singular input. *)

val logdet : Matrix.t -> float
(** Log of |det A| (natural log) via LU.
    @raise Singular on singular input. *)

val regularize : Matrix.t -> float -> Matrix.t
(** [regularize a eps] adds [eps] to the diagonal — the standard fix
    for near-singular pooled covariances in template attacks. *)

val jacobi_eigen : ?max_sweeps:int -> Matrix.t -> float array * Matrix.t
(** Eigendecomposition of a symmetric matrix by cyclic Jacobi
    rotations: returns (eigenvalues, eigenvectors-as-columns), sorted
    by decreasing eigenvalue.  Used by the PCA trace compression.
    @raise Invalid_argument on non-square input. *)

val principal_components : Matrix.t -> k:int -> Matrix.t
(** The top-[k] eigenvectors (columns) of a symmetric matrix — the
    projection basis PCA uses.
    @raise Invalid_argument when k exceeds the dimension. *)
