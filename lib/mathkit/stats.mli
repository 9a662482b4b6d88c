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

val pooled_covariance : float array array array -> Matrix.t
(** Class-wise covariance pooled over classes weighted by (n_c - 1) —
    the covariance template attacks share across templates. *)

val argmax : float array -> int
val log_sum_exp : float array -> float
val normalize_probs : float array -> float array
(** Scale non-negative weights to sum to 1. *)

val percentile : float array -> float -> float
(** [percentile xs p] for p in [\[0,100\]], linear interpolation.
    [xs] is left as it was: this is {!percentile_in_place} on a copy. *)

val percentile_in_place : float array -> len:int -> float -> float
(** The percentile of [a.(0)] .. [a.(len - 1)], found by permuting
    them in place; the rest of [a] is not read.  What {!percentile}
    gives for [Array.sub a 0 len], bit for bit.
    @raise Invalid_argument as {!percentile} does, or unless
    [0 <= len <= Array.length a]. *)

val correlation : float array -> float array -> float
(** Pearson correlation; 0 when either side is constant. *)
