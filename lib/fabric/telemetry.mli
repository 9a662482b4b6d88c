(** Fleet telemetry aggregation: per-worker {!Traceio.Wire} telemetry
    streams folded into {!Obs.Summary} values, plus the pure
    straggler / missed-heartbeat heuristics over the drained reports.

    The aggregation is deliberately the same fold [obs merge] performs
    over the workers' JSONL files: each stream carries the file's
    exact line sequence (the worker tees one sink to both), and
    {!merge_reports} merges in sorted source order — so a live
    monitor's end-of-run summary is bit-identical to the post-hoc
    merge.  Backs [reveal monitor]; run by the orchestrating process,
    in-process. *)

type report = {
  r_name : string;  (** the start record's ["source"], else the peer label *)
  r_source : string option;
  r_summary : Obs.Summary.t;
  r_skipped : int;  (** slots lost to CRC damage + unparseable lines *)
  r_heartbeats : int;
  r_done : int;  (** last heartbeat's coefficient count *)
  r_total : int option;  (** last heartbeat's expected total, when known *)
  r_first_hb : float option;  (** stream-clock times of first/last heartbeat *)
  r_last_hb : float option;
  r_last_t : float option;  (** time of the last record of any kind *)
  r_truncated : string option;  (** the Corrupt message when the stream was cut *)
}

val heartbeat_event : string
(** The event name campaigns emit per batch: ["campaign.heartbeat"]. *)

val drain :
  ?on_heartbeat:(source:string -> done_:int -> total:int option -> t:float -> unit) ->
  peer:string ->
  in_channel ->
  report
(** Read one telemetry stream to its end frame, folding every line
    into a summary.  [on_heartbeat] fires per heartbeat with the
    worker's best-known name — the live progress feed.  Tolerant:
    CRC-skipped slots and unparseable lines are counted in
    [r_skipped], and a connection cut mid-stream yields a partial
    report with [r_truncated] set (a dead worker is a finding, not an
    error).  Does not close the channel. *)

val merge_reports : report list -> Obs.Summary.t option
(** Merge summaries in sorted [r_name] order — the [obs merge] fold.
    [None] on an empty list. *)

val stragglers : (string * int * float) list -> string list
(** [(name, done, elapsed)] per worker; returns (sorted) names whose
    [done/elapsed] rate is below half the fleet median rate (upper
    median of the sorted rates).  Fleets of fewer than two workers
    have no stragglers.  Pure and deterministic. *)

val missed_heartbeats : report -> bool
(** True when a non-empty stream carried no heartbeat at all, or when
    the stream continued past the last heartbeat by more than twice
    the observed mean heartbeat interval (at least two heartbeats
    needed to estimate the cadence). *)
