(** Point-of-interest selection.

    A template over a full window is impractical (the covariance blows
    up with dimension — the "curse of dimensionality" the paper cites),
    so the attack keeps only the few samples where class means differ
    most.

    Two classical scores are provided:
    - SOSD (sum of squared differences of class means), the method the
      paper cites [30];
    - SOST, the variance-normalised variant: squared mean differences
      divided by the standard error of those means.  SOST is what this
      reproduction uses by default, because late window positions whose
      content depends on the *next* coefficient's sampling have large
      spurious mean differences that SOSD cannot tell apart from real
      leakage; normalising by within-class scatter suppresses them.

    POIs are the highest scorers subject to a minimum spacing so one
    wide peak does not consume the whole budget. *)

val scores : float array array array -> float array
(** SOSD: [scores classes] where [classes.(c)] is a matrix of windows
    (rows) for class [c]; per-position summed squared pairwise mean
    differences.
    @raise Invalid_argument on ragged input or fewer than two
    non-empty classes. *)

val scores_t : float array array array -> float array
(** SOST: pairwise squared t-statistics,
    (mu_i - mu_j)^2 / (v_i/n_i + v_j/n_j + kappa). *)

val select : count:int -> float array -> int array
(** Indices of the top-[count] score positions, greedy, each at least 3
    samples from every position taken before it; sorted ascending. *)

val pick : float array -> int array -> float array
(** Project a window onto the chosen POIs. *)

val pick_fv : Mathkit.Fvec.t -> int array -> out:Mathkit.Fvec.t -> unit
(** [pick] over views: gather [window]'s POI samples into [out]
    (length [Array.length pois]) without allocating.
    @raise Invalid_argument on length mismatch or an out-of-bounds
    POI. *)
