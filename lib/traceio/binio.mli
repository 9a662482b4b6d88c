(** Little-endian binary primitives: [Buffer] writers and a
    bounds-checked string cursor for reading.

    Fixed-width fields are little-endian.  Variable-width integers use
    unsigned LEB128 ({!put_varint}); signed values go through zigzag
    ({!put_svarint}) so small magnitudes of either sign stay short.
    Every reader raises {!Error.Corrupt} — never [Invalid_argument] or
    a silent wrap — when the bytes run out or a field is out of
    range. *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_u64 : Buffer.t -> int64 -> unit
val put_f64 : Buffer.t -> float -> unit
(** IEEE-754 bit pattern via {!put_u64}: lossless for every float,
    including NaNs and infinities. *)

val put_varint : Buffer.t -> int64 -> unit
(** Unsigned LEB128 (1–10 bytes; the argument is treated as a 64-bit
    unsigned quantity). *)

val put_svarint : Buffer.t -> int64 -> unit
(** Zigzag + LEB128 for signed values. *)

val put_string : Buffer.t -> string -> unit
(** Length (varint) + raw bytes. *)

type cursor
(** Read position over an immutable string. *)

val cursor : ?name:string -> string -> cursor
(** [name] prefixes corruption messages (e.g. the file path). *)

val prefix_cursor : ?name:string -> string -> int -> cursor
(** [prefix_cursor s len] reads only the first [len] bytes of [s]: a
    frame payload at the front of a longer buffer.
    @raise Invalid_argument unless [0 <= len <= String.length s]. *)

val remaining : cursor -> int
val at_end : cursor -> bool

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_u64 : cursor -> int64
val get_f64 : cursor -> float
val get_varint : cursor -> int64
val get_svarint : cursor -> int64

val get_varint_int : cursor -> int
(** Varint checked to fit a non-negative OCaml [int].
    @raise Error.Corrupt when it does not. *)

val get_string : cursor -> string

val claim_words : cursor -> int -> int
(** [claim_words c count] moves the cursor past the next [count]
    8-byte words and returns the offset of the first in
    [contents c], for decoders that read a whole run of words at once.
    @raise Error.Corrupt when [count] is negative or fewer than
    [8 * count] bytes remain (checked without computing [8 * count],
    so no count overflows past the check). *)

val contents : cursor -> string
(** The string the cursor reads (a prefix cursor's whole buffer). *)

val expect_end : cursor -> unit
(** @raise Error.Corrupt when decoded fields did not consume the whole
    payload — trailing garbage means a codec/version mismatch. *)
