(** Versioned binary archives of power-trace sets.

    The paper's attack flow is acquire-once / analyze-many: one
    captured trace of the sampler is segmented, templated and fed to
    the lattice estimator over and over.  This module is the storage
    layer that separates the two phases — a campaign is captured once
    into an on-disk archive and replayed through any number of offline
    analyses with bounded memory.

    On-disk layout (all little-endian):

    {v
    "REVEALTR"  8-byte magic
    u16         format version (= 3)
    FRAME       header: variant u8, n u32, seed u64,
                samples_per_cycle u16, noise_sigma f64,
                trace_count u32 (0xFFFFFFFF until finalised),
                meta count + (key, value) string pairs
    FRAME*      one per trace record: index varint,
                noise labels (zigzag varints),
                samples (varint count, then one raw
                little-endian IEEE-754 word each)
    v}

    where FRAME is [u32 length | payload | u32 crc32] (see {!Frame}).
    Readers verify every checksum and every declared count before
    interpreting bytes; any mismatch raises {!Error.Corrupt} rather
    than misreading data.  An archive of another format version is
    refused the same way: no older layout is read, so a v1 or v2
    archive (whose records also carried instruction-event streams) must
    be re-recorded. *)

val version : int
(** The format version this build writes and reads: 3. *)

type header = {
  variant : Riscv.Sampler_prog.variant;  (** firmware the traces came from *)
  n : int;  (** coefficients per run *)
  seed : int64;  (** campaign seed, for provenance *)
  samples_per_cycle : int;
  noise_sigma : float;  (** scope noise the synthesiser added *)
  trace_count : int;
  meta : (string * string) list;  (** free-form extensions (e.g. profiling calibration) *)
}

type record = {
  index : int;  (** position in the campaign, 0-based and sequential *)
  noises : int array;  (** ground-truth labels: the coefficients sampled *)
  samples : Mathkit.Fvec.t;
      (** decoded straight into the unboxed vector segmentation reads,
          with no intermediate [float array] *)
}

val variant_name : Riscv.Sampler_prog.variant -> string
val meta_find : header -> string -> string option

(** {1 Writing}

    The writer streams: each appended record is framed and flushed
    forward, nothing is buffered across records, so a paper-scale
    campaign never holds more than one trace in memory. *)

type writer

val open_writer :
  ?obs:Obs.Ctx.t ->
  ?meta:(string * string) list ->
  variant:Riscv.Sampler_prog.variant ->
  n:int ->
  seed:int64 ->
  samples_per_cycle:int ->
  noise_sigma:float ->
  string ->
  writer
(** With an enabled [obs] context the writer counts
    [traceio.records_written] / [traceio.payload_bytes_written] in the
    context's metrics registry.
    @raise Error.Io when the path cannot be created. *)

val append : writer -> noises:int array -> Power.Ptrace.t -> unit
(** @raise Invalid_argument when the record does not match the header
    (label count, samples per cycle).
    @raise Error.Io on a write failure (message carries the path). *)

val close_writer : writer -> unit
(** Patches the finalised record count into the header and closes the
    file.  Idempotent.  An archive whose writer never closed is
    rejected by {!open_reader}. *)

(** {1 Reading}

    Strictly streaming: {!next} holds exactly one record in memory. *)

type reader

val open_reader : ?obs:Obs.Ctx.t -> string -> reader
(** Validates magic, version and the header checksum.  With an enabled
    [obs] context the reader counts [traceio.records_read],
    [traceio.payload_bytes_read] and — crucially for replay campaigns —
    [traceio.records_skipped] in the context's metrics registry, so
    skip totals survive beyond any one caller's local tally; each skip
    also emits a warn-level [traceio.skip] event carrying the
    diagnostic.
    @raise Error.Corrupt on any mismatch, including an unfinalised
    archive. *)

val header : reader -> header

val next : reader -> record option
(** Next verified record; [None] at the declared end.
    @raise Error.Corrupt on checksum mismatch, truncation (fewer
    records than the header declares), trailing data, or a record
    inconsistent with the header. *)

val next_batch : reader -> max:int -> record array
(** Up to [max] records read by {!next} — the unit parallel profiling
    ingests. *)

val try_next : reader -> [ `Record of record | `Skipped of string | `End_of_archive ]
(** Tolerant {!next}: a record whose frame fails its CRC, or whose
    verified payload will not decode, is reported as [`Skipped] (with
    the diagnostic) and the cursor resumes at the next frame boundary —
    campaign replay can drop the one bad trace and keep going.
    Structural damage that destroys the framing (truncation, damaged
    length field, trailing data) still raises {!Error.Corrupt}. *)

val close_reader : reader -> unit

val with_reader : ?obs:Obs.Ctx.t -> string -> (reader -> 'a) -> 'a
val fold : string -> ('a -> record -> 'a) -> 'a -> 'a

val rewrite : ?keep:int list -> ?span:int * int -> src:string -> dst:string -> unit -> int
(** Copy [src] to [dst], keeping only the records whose original index
    is in [keep] (default: all) and cropping every kept record's trace
    to the sample span [\[lo, hi)] (default: whole trace).  Kept
    records are re-indexed densely, and the header's other fields and
    meta are copied verbatim.  The span is clamped per record — fault
    drop/dup makes record lengths differ — so one span is legal across
    a whole archive.  Returns the number of records written.  This is
    the primitive the triage minimizer bisects with (DESIGN.md §14).
    @raise Invalid_argument on a negative index or [lo < 0 || hi < lo].
    @raise Error.Corrupt when [src] does not verify (strict read). *)

val file_size : string -> int
(** On-disk byte size of the file at the path.
    @raise Error.Io when it cannot be opened. *)
