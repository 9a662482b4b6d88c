(** Principal-subspace trace compression (Archambeau et al., CHES 2006).

    An alternative to hand-picked points of interest: project whole
    windows onto the top principal components of the *between-class*
    scatter (the directions along which class means move), then build
    Gaussian templates in that low-dimensional subspace.  Compared
    against SOSD/SOST POIs in the feature-selection ablation. *)

type t = {
  mean : float array;  (** global mean subtracted before projection *)
  basis : Mathkit.Matrix.t;  (** d x k projection (columns orthonormal) *)
}

val fit : ?k:int -> (int * float array array) list -> t
(** [fit classes] with [(label, windows)] pairs: principal components
    of the between-class scatter of the class means (default k = 8
    components, clipped to #classes - 1).
    @raise Invalid_argument on fewer than two classes. *)

val components : t -> int
val transform : t -> float array -> float array
(** Project one window into the subspace. *)

val explained : (int * float array array) list -> k:int -> float
(** Fraction of between-class variance captured by the top k
    components — the knob-tuning diagnostic. *)
