(** Flat little-endian RAM with a memory-mapped I/O window.

    Addresses [0, size) are RAM.  Word loads at or above {!mmio_base}
    are routed to a user-installed handler — the simulated SoC uses
    one MMIO register as the entropy port feeding the Gaussian sampler
    (the role the TRNG/AXI RNG peripheral plays on the FPGA board). *)

type t

val mmio_base : int
(** 0x8000_0000. *)

val create : int -> t
(** [create size] allocates [size] bytes of zeroed RAM (word aligned). *)

val clear : t -> unit
(** Back to the state {!create} returns: every byte zero, no MMIO
    handler.  Lets one RAM serve run after run. *)

val set_mmio_read : t -> (int -> int32) -> unit
(** Handler for word loads at [addr >= mmio_base]; receives the
    absolute address. *)

val load_word : t -> int -> int
(** The unsigned 32-bit word at the address, as an int (an MMIO read
    returns the handler's [int32] reinterpreted unsigned).
    @raise Invalid_argument on unaligned or out-of-range access. *)

val store_word : t -> int -> int -> unit
(** Store the low 32 bits of the value.  Stores are RAM-only: the
    sampler's MMIO ports are read-only.
    @raise Invalid_argument on unaligned, out-of-range or MMIO
    access. *)

val load_byte : t -> int -> int  (** sign-extended *)

val load_byte_u : t -> int -> int
val load_half : t -> int -> int  (** sign-extended *)

val load_half_u : t -> int -> int
val store_byte : t -> int -> int -> unit
val store_half : t -> int -> int -> unit

val load_program : t -> int -> int32 array -> unit
(** Copy encoded instruction words starting at the given address. *)
