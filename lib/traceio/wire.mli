(** Socket wire protocol: live observability telemetry over a byte
    pipe.

    A streaming peer frames obs JSONL lines for a connection (or a
    file) where the reader cannot seek.  Layout (little-endian):

    {v
    "REVEALWS"  8-byte magic
    u16         wire version (currently 1)
    FRAME*      'T' tag + one obs JSONL line (verbatim bytes)
    FRAME       'E' tag + u32 count of telemetry slots streamed
    v}

    where FRAME is [u32 length | payload | u32 crc32] ({!Frame}) and
    the tag is the payload's first byte.  There is no header frame —
    the obs trace's own ["start"] record is the stream's
    self-description.  The explicit end frame is what makes a cut
    visible: a connection that drops mid-stream leaves no 'E' frame
    and the receiver raises {!Error.Corrupt} instead of mistaking the
    cut for a clean end.

    Corruption discipline mirrors {!Archive.try_next}: a 'T' frame
    that fails its CRC is skippable — the frame boundary survives, the
    receiver counts the slot and moves on — while preamble or framing
    damage, any other tag, or a cut before the end frame is structural
    {!Error.Corrupt}. *)

type telemetry_sender

val create_telemetry_sender : peer:string -> out_channel -> telemetry_sender
(** Writes the preamble immediately and flushes.
    @raise Error.Io when the channel refuses the write. *)

val telemetry_send : telemetry_sender -> string -> unit
(** Frame one JSONL line (without its newline) and flush, so a live
    monitor sees it immediately.
    @raise Invalid_argument on an empty line or a finished sender. *)

val telemetry_count : telemetry_sender -> int

val telemetry_finish : telemetry_sender -> unit
(** Write the end frame and flush.  Idempotent; the channel stays the
    caller's to close. *)

type telemetry_receiver

val open_telemetry_receiver : peer:string -> in_channel -> telemetry_receiver
(** Reads and validates the preamble.  Tolerant: a frame that fails
    its CRC is skipped and counted.  The channel stays the caller's to
    close.
    @raise Error.Corrupt on a bad preamble or version. *)

val telemetry_recv : telemetry_receiver -> [ `Line of string | `Skipped of string | `End_of_stream ]
(** Pull the next telemetry slot.  [`End_of_stream] at (and after) the
    end frame, whose count must equal the slots streamed.
    @raise Error.Corrupt when the connection ends without an end
    frame, on structural damage, or on a frame tagged other than 'T'
    or 'E'. *)

val telemetry_skipped : telemetry_receiver -> int
(** Slots lost to CRC damage so far. *)
