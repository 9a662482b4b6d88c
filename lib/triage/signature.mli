(** Verdict fingerprints and the known-signatures store.

    A signature is one stable text line built from typed scenario and
    verdict fields only — kind, variant, gate, intensity, detail.  Trial ids, seeds, counts, file paths and log text are
    deliberately excluded: the same bug found under a different seed
    or with noisier logs must fingerprint identically, and a line
    committed to a known-signatures file must keep matching across
    machines and runs (the pquery-run [known_bugs.strings]
    discipline). *)

val of_verdict : Plan.trial -> Verdict.t -> string
(** e.g. [misgrade variant=v32 gate=aggressive intensity=0.75
    detail=confident-wrong-sign]. *)

type store

val empty : store
val of_list : string list -> store
val mem : store -> string -> bool
val add : store -> string -> store
val to_list : store -> string list
(** Sorted — rendering a store is deterministic. *)

val size : store -> int

val load : string -> store
(** Parse a known-signatures file: one signature per line, blank lines
    and [#] comments ignored, surrounding whitespace trimmed.
    @raise Traceio.Error.Io when the file cannot be read. *)

val load_opt : string -> store
(** {!load}, or {!empty} when the file does not exist. *)

val append : string -> string list -> unit
(** Append signatures to a known-signatures file, creating it if
    missing — how a triaged novel failure graduates to known. *)
