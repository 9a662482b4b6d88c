(** Profile cache serialization (format v3).

    Persists a built {!Pipeline.profile} (templates, POIs, calibrated
    segmentation and fit floors) so the expensive profiling phase runs
    once per device.  The format is a versioned binary codec in the
    {!Traceio} format family — a {!Traceio.Frame.save} single-frame
    file under {!Constants.profile_magic} and
    {!Constants.profile_version}.  Stale or damaged caches are
    rejected on load with an actionable message instead of being
    misinterpreted. *)

val save : string -> Pipeline.profile -> unit
(** @raise Traceio.Error.Io when the path cannot be written (message
    carries the path). *)

val load : string -> Pipeline.profile
(** @raise Traceio.Error.Corrupt naming the file, with the advice to
    re-run profiling, on a stale (v1 / Marshal-era),
    version-mismatched, truncated, corrupt or over-long cache.
    @raise Traceio.Error.Io when the file cannot be read. *)

(**/**)

(* The raw payload codec, exposed for round-trip property tests. *)

val profile_payload : Pipeline.profile -> string
val profile_of_payload : path:string -> string -> Pipeline.profile
