(** Pull-based record streams — the storage-side source adapter.

    An archive on disk, or any other acquisition backend wrapped with
    {!make_fv}, presents the same three operations: pull the
    next event, know what it is called, release it.  The attack
    pipeline's archive-replay source is a thin wrapper over this
    adapter, so corruption policy (skip-and-count vs fail-fast) is
    decided once, here, instead of per consumer. *)

type event = [ `Record of Archive.record | `Skipped of string | `End_of_archive ]
(** One pull: a decoded record, a mid-stream corrupt record that was
    skipped (tolerant mode only; carries the reason), or the end. *)

type event_fv = event
(** Kept for callers that still name it. *)

type t

val name : t -> string
(** Where the stream comes from (the path, for archives). *)

val next : t -> event

val next_fv : t -> event_fv
(** {!next} under its older name. *)

val close : t -> unit
(** Idempotent; releases the underlying reader, if any. *)

val of_archive : ?strict:bool -> ?obs:Obs.Ctx.t -> string -> t
(** Stream an archive file.  Tolerant by default: a record failing its
    CRC (or refusing to decode) yields [`Skipped] and the stream
    resumes at the next frame boundary.  With [~strict:true] the same
    condition raises {!Error.Corrupt} instead.  [obs] is forwarded to
    {!Archive.open_reader}, so read/skip totals land in its metrics
    registry rather than in per-caller local counts.
    @raise Error.Io when the file cannot be opened. *)

val make_fv :
  name:string -> next:(unit -> event) -> next_fv:(unit -> event_fv) -> close:(unit -> unit) -> t
(** Wrap an arbitrary acquisition backend.  [next_fv] is the stream
    {!next} pulls; [next] is never called, and is accepted only because
    callers written for the older two-shape interface still pass it.
    The pull must keep returning [`End_of_archive] once it has;
    [close] must be idempotent. *)
