(** Pluggable destinations for observability events.

    {!null} is the default sink: a shared immutable value, so the
    disabled path costs one pattern match and never allocates.  The
    writing sinks serialize each event as one compact JSON line; they
    lock internally, so one sink may receive events from several
    domains. *)

type t

val null : t
(** Drops everything; allocation-free. *)

val file : string -> t
(** Opens [path] for writing; {!close} closes it.  Raises [Failure
    "Obs.Sink.file: cannot write <path>: ..."] when the path cannot be
    opened — errors name the path, never a bare [Sys_error]. *)

val memory : unit -> t * (unit -> Json.t list)
(** In-memory sink for tests: returns the sink and a function reading
    the events emitted so far, in order. *)

val tee : t -> t -> t
(** Fan each event out to both sinks, in argument order, under one
    lock — both destinations observe the identical event sequence, so
    a live stream carries exactly the lines of the tee'd file.
    {!close} closes both (the second even if the first raises).
    Teeing with {!null} returns the other sink unchanged. *)

val stream : send:(string -> unit) -> close:(unit -> unit) -> unit -> t * (unit -> int)
(** Bounded, non-blocking streaming sink: events are serialized to
    single JSON lines and queued (up to 1024) for a background domain
    that hands each line to [send] in emission order.
    The emitter never blocks and never raises: a full queue, or any
    exception from [send] (the receiver went away), drops the line and
    counts it.  Closing the sink drains the queue, joins the sender
    domain, then calls [close] — the place to write an end-of-stream
    frame and tear the connection down.  Returns the sink and a
    function reading the drop count. *)

(** {1 Flight recorder} — fixed-size ring of the most recent events. *)

type ring

val ring : unit -> t * ring
(** Ring-buffer sink retaining the last 256 events.  Recording stores
    the already-built event under a lock — no serialization, no I/O —
    so the recorder stays armed for a whole run at negligible cost.  {!close} on the sink is a no-op: the ring
    outlives it for the crash dump. *)

val ring_total : ring -> int
(** Events ever recorded (not just retained). *)

val ring_contents : ring -> Json.t list
(** The retained events, oldest first. *)

val ring_dump : ring -> string -> unit
(** Write the retained events to [path] as JSON Lines, preceded by a
    header record [{"v":1,"ev":"flight","capacity":N,"total":M}] so a
    reader can tell how much history wraparound discarded.  Raises
    [Failure "Obs.Sink.ring_dump: cannot write <path>: ..."] when the
    path cannot be opened. *)

val emit : t -> Json.t -> unit
val close : t -> unit
