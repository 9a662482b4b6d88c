(** CRC-32 (IEEE, reflected, poly 0xEDB88320 — the zlib/PNG variant).

    Every frame of a [traceio] archive carries the CRC of its payload;
    readers recompute and compare before interpreting a single byte.
    Checksums are 32-bit values held in non-negative OCaml [int]s.
    The loop runs slice-by-8 (eight table lookups per 8-byte word, a
    byte-wise tail) and gives the byte-wise digests bit for bit. *)

val digest : string -> int
(** CRC-32 of a whole string.  [digest "123456789" = 0xCBF43926]. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends a running digest — feeding a string
    piecewise gives the same result as one [digest] over the
    concatenation; [update 0] digests a substring.
    @raise Invalid_argument when the range is out of bounds. *)
