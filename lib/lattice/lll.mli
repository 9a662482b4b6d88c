(** Lenstra–Lenstra–Lovász reduction with floating-point Gram–Schmidt.

    Standard textbook LLL (size reduction + Lovász condition) on an
    exact integer basis; only the Gram–Schmidt shadow is floating
    point.  Good enough to solve the Kannan embeddings of the toy
    hint-reduced instances and to serve as the base case of BKZ. *)

type gso = {
  mu : float array array;  (** Gram-Schmidt coefficients (lower triangular) *)
  b_star_sq : float array;  (** squared GS norms *)
}

val gso : Zmat.t -> gso
(** Recompute the GS shadow of a basis. *)

val reduce : ?delta:float -> Zmat.t -> unit
(** In-place LLL with Lovász parameter [delta] (default 0.99).
    @raise Invalid_argument if rows are linearly dependent. *)

val is_reduced : ?delta:float -> Zmat.t -> bool
