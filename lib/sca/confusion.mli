(** Confusion-matrix accumulation and Table-I-style rendering. *)

type t

val create : labels:int array -> t
(** Square matrix over the given label set. *)

val add : t -> actual:int -> predicted:int -> unit
(** Labels outside the declared set raise [Invalid_argument]. *)

val count : t -> actual:int -> predicted:int -> int

val column_percent : t -> actual:int -> predicted:int -> float
(** Percentage of [actual]'s occurrences predicted as [predicted] —
    the paper's Table I normalisation (columns sum to 100). *)

val render : ?lo:int -> ?hi:int -> t -> string
(** Table I: rows = predicted, columns = actual, column percentages,
    clipped to labels in [lo..hi] (defaults: full label range). *)
