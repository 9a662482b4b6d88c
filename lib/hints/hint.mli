(** Converting attack posteriors into DBDD hints (Section IV-C).

    The template attack returns, for every sampled coefficient, a
    probability distribution over candidate values.  Following the
    paper: distributions with (numerically) zero variance become
    perfect hints; the rest become approximate hints carrying their
    posterior variance.  The branch-only attack yields sign
    information, which is a perfect hint for zeros and a half-Gaussian
    posterior for the others. *)

type kind =
  | Perfect of int  (** the exact value *)
  | Approximate of { mean : float; variance : float; confidence : float }
      (** [confidence] is the posterior mass of the most likely value
          — what a guess of this coordinate would succeed with *)
  | None_useful  (** posterior no sharper than the prior *)

type t = { coordinate : int; kind : kind }

val of_posterior : coordinate:int -> (int * float) array -> t
(** [of_posterior ~coordinate dist] with [dist = (value, prob) array].
    Variance of at most 1e-9 makes the hint
    perfect — the paper's "probabilities rounded to 1 by floating
    point precision" case. *)

val sign_hint : sigma:float -> coordinate:int -> int -> t
(** Branch-only information: sign -1/0/+1.  Zero is perfect; a known
    sign leaves a half-Gaussian with variance sigma^2 (1 - 2/pi)
    around mean +-sigma sqrt(2/pi). *)

val centered_mean : (int * float) array -> float
val variance : (int * float) array -> float

val kind_counts : t list -> int * int * int
(** (perfect, approximate, none-useful) — the hint-ladder census the
    fault-sweep reporting prints. *)

val apply : Dbdd.t -> t -> unit
(** Integrate into the lite estimator. *)

val apply_all : Dbdd.t -> t list -> unit

type ladder_step = {
  guesses : int;  (** cumulative number of guessed coordinates *)
  success_probability : float;  (** probability every guess so far is right *)
  bikz : float;  (** hardness if they are *)
}

val guess_ladder : Dbdd.t -> t list -> max_guesses:int -> ladder_step list
(** The full "hints and guesses" trade-off of [31]: repeatedly guess
    the most confident unguessed coordinate; each step turns an
    approximate hint into a perfect one at a multiplicative success
    cost.  Steps stop early when no candidates remain. *)
