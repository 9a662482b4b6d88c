(** Primal (Kannan) embedding of LWE — with optional hint folding.

    Turns an LWE instance b = A s + e (mod q) into a uSVP basis

    {v
        [ q I_m     0      0 ]
        [  A^T     I_n     0 ]
        [  b        0      M ]
    v}

    whose unique short vector is (-e, s, -M).  Perfect hints shrink
    the problem before embedding: a perfect hint on e_j turns sample j
    into an exact linear equation (used to eliminate a secret
    variable mod q).  This mirrors what the estimator predicts and
    lets the toy benches *solve* instances the estimator calls
    easy. *)

type instance = {
  q : int;
  a : int array array;  (** m rows of n columns, entries in [0, q) *)
  b : int array;  (** length m *)
}

val negacyclic_matrix : q:int -> int array -> int array array
(** Convolution matrix of a ring element p in Z_q[x]/(x^n + 1): row j
    maps u to coefficient j of p*u. *)

val kannan_basis : instance -> Zmat.t
(** The basis above with M = 1. *)

val eliminate_perfect : instance -> known:(int * int) list -> instance
(** [eliminate_perfect inst ~known] folds perfect error hints
    [(sample index, e value)]: each known sample becomes an exact
    equation and eliminates one secret variable by substitution
    mod q.  Returns the reduced instance (fewer secret columns and
    samples).  @raise Invalid_argument if a pivot is not invertible. *)

type solution = { secret : int array; error : int array }

val solve : instance -> solution option
(** BKZ with block size 12 on the embedding; extracts and verifies a
    candidate (s, e) with a ternary secret.  [None] if reduction did
    not surface the planted vector. *)
