(** Streaming and batch statistics used across trace analysis. *)

type running
(** Welford accumulator: numerically stable streaming mean/variance. *)

val running : unit -> running
val push : running -> float -> unit
val mean : running -> float
val variance : running -> float
(** Sample (n-1) variance; 0 for fewer than two points. *)

val stddev : running -> float

val mean_a : float array -> float
val variance_a : float array -> float

val mean_vector : float array array -> float array
(** Component-wise mean over rows. *)

val covariance_matrix : float array array -> Matrix.t
(** Sample covariance of the rows (observations x features). *)

val pooled_covariance : float array array array -> Matrix.t
(** Class-wise covariance pooled over classes weighted by (n_c - 1) —
    the covariance template attacks share across templates. *)

val argmax : float array -> int
val argmin : float array -> int
val log_sum_exp : float array -> float
val normalize_probs : float array -> float array
(** Scale non-negative weights to sum to 1. *)

val histogram : bins:int -> lo:float -> hi:float -> float array -> int array
val percentile : float array -> float -> float
(** [percentile xs p] for p in [\[0,100\]], linear interpolation. *)

val correlation : float array -> float array -> float
(** Pearson correlation; 0 when either side is constant. *)
