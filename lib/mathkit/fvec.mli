(** Bigarray-backed float vectors with strided views — the unboxed
    numeric substrate of the attack's hot path.

    A {!t} is a (possibly strided) view into a [Float64] [c_layout]
    buffer.  Views alias: [sub]/[strided] never copy, and a write
    through one view is visible through every other view of the same
    buffer.  Kernels validate bounds once up front and run unchecked
    inner loops.

    Kernel arithmetic (fold direction, two-pass variance, strict
    argmax, NaN behaviour) matches the historical [float array]
    implementations in {!Stats} and {!Matrix} bit for bit. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** Raw buffer access for sibling kernel modules (see {!Fmat}):
    unchecked — the caller validates the index. *)
val uget : buffer -> int -> float

val uset : buffer -> int -> float -> unit

(** [check_range b ~off ~stride ~len name] validates the whole strided
    index range against [b] in O(1).  Hot kernels (here and in sibling
    modules) call it once up front and then apply the Bigarray
    primitives directly, because without flambda a per-element [uget]
    call cannot inline across modules and boxes every float it
    returns.
    @raise Invalid_argument (naming [name]) when the range escapes
    the buffer. *)
val check_range : buffer -> off:int -> stride:int -> len:int -> string -> unit

(** [buffer]/[offset]/[stride] expose the view layout so sibling
    kernels can run their own validated raw loops. *)
val buffer : t -> buffer

val offset : t -> int
val stride : t -> int
val length : t -> int

(** Fresh zero-filled contiguous vector. *)
val create : int -> t

val get : t -> int -> float
val set : t -> int -> float -> unit
val init : int -> (int -> float) -> t
val of_array : float array -> t
val to_array : t -> float array

(** [blit_from_array xs t] overwrites [t] (same length) with [xs]. *)
val blit_from_array : float array -> t -> unit

val fill : t -> float -> unit
val blit : src:t -> dst:t -> unit
val copy : t -> t

(** [sub t pos len]: aliasing view of [t.(pos .. pos+len-1)]. *)
val sub : t -> int -> int -> t

(** [strided t ~pos ~len ~stride]: aliasing view of every [stride]-th
    element starting at [pos]; strides compose multiplicatively. *)
val strided : t -> pos:int -> len:int -> stride:int -> t

val iteri : (int -> float -> unit) -> t -> unit
val sum : t -> float
val mean : t -> float
val variance : t -> float
val dot : t -> t -> float

(** [axpy a ~x ~y]: [y <- y + a*x], elementwise, in place. *)
val axpy : float -> x:t -> y:t -> unit

val sqdist : t -> t -> float
val argmax : t -> int
val argmin : t -> int
val minimum : t -> float
val maximum : t -> float

val minmax : t -> float * float
(** [(minimum t, maximum t)] in one traversal — both components are
    bit-identical to the separate calls. *)

val histogram : bins:int -> lo:float -> hi:float -> t -> int array

(** Explicit-capacity bump arenas for per-domain scratch.  A stage
    sizes its arena once from profile constants, carves persistent
    views with {!Scratch.alloc}, and reuses them for every window —
    allocation-free after setup.  Overflow raises; arenas never grow.
    One arena per domain: the views alias one buffer, so sharing an
    arena across domains is a data race. *)
module Scratch : sig
  type vec = t
  type t

  val create : int -> t
  val capacity : t -> int
  val used : t -> int

  (** Forget every allocation (views stay valid as raw aliases but
      must no longer be used); subsequent [alloc]s reuse the space. *)
  val reset : t -> unit

  (** Carve an uninitialised (last-use contents) contiguous view. *)
  val alloc : t -> int -> vec
end
