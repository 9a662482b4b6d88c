(** Byte transports for the distributed campaign fabric.

    A transport is only a way to get a connected byte pipe — the
    protocol spoken over it is {!Traceio.Wire}, which is written
    against plain channels.  Two transports cover the fabric's needs:
    Unix-domain sockets (loopback worker fleets, tests) and TCP
    (a monitor on another host).  Adding a transport means adding an
    {!endpoint} constructor and its [listen]/[connect] arms; nothing
    in the wire protocol or the orchestrator changes (DESIGN.md
    section 13).

    Operating-system failures surface as {!Traceio.Error.Io} carrying
    the endpoint string, mirroring the file container's discipline. *)

type endpoint =
  | Unix_socket of string  (** filesystem path *)
  | Tcp of string * int  (** host (name or dotted quad), port *)

val parse : string -> (endpoint, string) result
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val to_string : endpoint -> string
(** Round-trips with {!parse}. *)

type connection = {
  ic : in_channel;
  oc : out_channel;  (** both views of the one socket *)
  peer : string;  (** label for errors and obs attrs *)
}

type listener

val listen : endpoint -> listener
(** Bind and listen with a backlog of 16.  A stale Unix-socket file
    at the path is unlinked first (the bind would otherwise fail
    forever).
    @raise Traceio.Error.Io on any OS refusal. *)

val accept : listener -> connection
(** Block for the next client. *)

val close_listener : listener -> unit
(** Idempotent; also unlinks a Unix socket's path. *)

val connect : ?retries:int -> endpoint -> connection
(** Connect, optionally riding out a serve/connect race: a transient
    refusal (connection refused/reset, socket file not there yet) is
    retried up to [retries] extra times with a doubling backoff that
    starts at 0.05 s and caps at 0.5 s per wait.  The default
    [retries = 0] preserves the old fail-immediately behaviour.
    Non-transient failures never retry.
    @raise Traceio.Error.Io when the peer is (still) not there.
    @raise Invalid_argument when [retries < 0]. *)

val close_connection : connection -> unit
(** Flush and close both channel views.  Idempotent in effect (double
    close is swallowed). *)
