(** CRC-checksummed chunk framing, and the container every file of
    the format family shares.

    A frame is [u32 length | payload | u32 crc32(payload)], all
    little-endian.  Frames are the archive's unit of verification and
    of memory residency: readers hold exactly one frame's payload at a
    time.  A file or stream opens with a preamble: an 8-byte magic,
    then the format version as a little-endian u16. *)

val write : path:string -> out_channel -> string -> unit
(** Append one frame.  [path] contextualises {!Error.Io} failures. *)

val read : path:string -> in_channel -> string option
(** Next verified payload; [None] on a clean end of file.
    @raise Error.Corrupt on truncation mid-frame, an oversized length
    field, or a checksum mismatch.
    @raise Error.Io when the OS fails the read. *)

val try_read : path:string -> in_channel -> [ `Payload of string | `Bad_crc of string | `End ]
(** Like {!read}, but a checksum mismatch is reported as [`Bad_crc]
    with the diagnostic message instead of raising.  The mismatch is
    only detected after the whole frame has been consumed, so the
    channel sits at the next frame boundary and reading can continue —
    the basis of skip-and-continue archive recovery.  Truncation and
    damaged length fields still raise {!Error.Corrupt}: they destroy
    the framing itself, there is no boundary to resume from. *)

val read_unverified :
  path:string -> in_channel -> into:(int -> bytes) -> [ `Frame of bytes * int * int | `End ]
(** The next frame with its checksum not yet compared:
    [`Frame (buf, len, stored)] holds the payload in the first [len]
    bytes of [buf = into len] (a buffer at least that long) and the
    CRC-32 the frame stores.  [`End] on a clean end of file.  Only the
    framing is checked, so a truncation or a damaged length field
    raises {!Error.Corrupt} as in {!read}, and the channel is left at
    the next frame boundary. *)

val crc_mismatch : path:string -> bytes -> len:int -> stored:int -> string option
(** [None] when the CRC-32 of the first [len] bytes equals [stored];
    otherwise the diagnostic {!try_read} reports as [`Bad_crc].  The
    bytes are read in place: nothing may write them meanwhile. *)

(** {1 Files of the family} *)

val write_preamble : path:string -> out_channel -> magic:string -> version:int -> unit
(** Write the 8-byte [magic] and the u16 [version]. *)

val read_preamble : path:string -> in_channel -> what:string -> magic:string -> version:int -> unit
(** Consume and check the preamble; [what] names the format in errors
    (e.g. ["reveal trace archive"]).
    @raise Error.Corrupt on another magic, another version or
    truncation. *)

val save : path:string -> magic:string -> version:int -> string -> unit
(** Write a single-frame file: preamble, then one frame holding the
    payload. *)

val load : path:string -> what:string -> magic:string -> version:int -> string
(** The payload of a single-frame file.
    @raise Error.Corrupt on a bad preamble, a missing or damaged frame,
    or any byte after the frame.
    @raise Error.Io when the file cannot be read. *)
