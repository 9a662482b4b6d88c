(** Bigarray-backed float vectors with contiguous views — the unboxed
    numeric substrate of the attack's hot path.

    A {!t} is a contiguous view into a [Float64] [c_layout] buffer.
    Views alias: [sub] never copies, and a write through one view is
    visible through every other view of the same buffer.  Kernels
    validate bounds once up front and run unchecked inner loops. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** [check_range b ~off ~len name] validates the [len] indices from
    [off] (up to [off + len - 1]) against [b] in O(1).  Hot kernels
    (here and in sibling modules) call it once up front and then apply
    the Bigarray primitives directly, because without flambda a
    per-element accessor call cannot inline across modules and boxes
    every float it returns.
    @raise Invalid_argument (naming [name]) when the range escapes
    the buffer. *)
val check_range : buffer -> off:int -> len:int -> string -> unit

(** [buffer]/[offset] expose the view layout so sibling kernels can
    run their own validated raw loops: element [i] of [t] is
    [(buffer t).{offset t + i}]. *)
val buffer : t -> buffer

val offset : t -> int
val length : t -> int

(** Fresh zero-filled vector. *)
val create : int -> t

val get : t -> int -> float
val init : int -> (int -> float) -> t
val of_array : float array -> t
val to_array : t -> float array

(** [blit_from_array xs t] overwrites [t] with the first [length t]
    elements of [xs].
    @raise Invalid_argument when [xs] is shorter than [t]. *)
val blit_from_array : float array -> t -> unit

(** A fresh vector with [t]'s contents. *)
val copy : t -> t

(** [sub t pos len]: aliasing view of [t.(pos .. pos+len-1)]. *)
val sub : t -> int -> int -> t

val minmax : t -> float * float
(** [(Array.fold_left Float.min x0 xs, Array.fold_left Float.max x0 xs)]
    over the elements [xs] of [t], [x0] the first, in one traversal and
    bit for bit.
    @raise Invalid_argument when [t] is empty. *)

val histogram : bins:int -> lo:float -> hi:float -> t -> int array
(** Counts of the elements in [bins] equal-width bins over
    [\[lo, hi)]; elements outside are not counted.
    @raise Invalid_argument unless [bins > 0] and [hi > lo]. *)
