(** Exact integer lattice bases.

    Row-vector convention: a basis is an array of rows, each an
    integer vector.  Arithmetic is native-int with overflow guards —
    the toy instances this backend reduces (ring degree <= 64, q < 2^27)
    keep every entry far below 2^62, and the guards turn any
    violation into an exception instead of silent wraparound. *)

type vec = int array
type t = int array array

val checked_add : int -> int -> int
val checked_mul : int -> int -> int
(** @raise Failure on overflow. *)

val dot : vec -> vec -> int
val add : vec -> vec -> vec
val sub : vec -> vec -> vec
val scale : int -> vec -> vec
val axpy : int -> vec -> vec -> unit
(** [axpy c x y] sets y <- y + c x, exactly. *)

val norm_sq : vec -> int
val copy : t -> t
val cols : t -> int
val swap_rows : t -> int -> int -> unit
