(** Single source of truth for the pipeline's shared constants.

    Every value here used to be re-spelled at two or more places in
    the campaign and experiment monoliths; a drift between copies
    (e.g. a profile format version bumped in the writer but not the
    reader) is exactly the kind of bug a refactor must make
    impossible.  Nothing in this module may depend on any other
    [Reveal] module. *)

val default_values : int array
(** -14 .. 14, the range the paper observed over 220 000 draws. *)

val default_per_value : int
(** Profiling windows per candidate value (400). *)

val default_poi_count : int
(** POIs per value template (16). *)

val default_sign_poi_count : int
(** POIs for the sign template (6). *)

val default_batch : int
(** Archive records resident at a time while streaming (16). *)

(** {1 Profile cache format} *)

val profile_magic : string
val profile_version : int

(** {1 Profiling-archive metadata keys} *)

val meta_kind_key : string
val meta_threshold_key : string
val meta_values_key : string
val meta_per_value_key : string

(** {1 Confidence-gate defaults} *)

val gate_confident_threshold : float
val gate_tentative_threshold : float
val gate_sign_only_threshold : float
val gate_retry_budget : int

val retry_seed_salt : int64
(** Xored into a trace's scope seed to derive its re-measurement
    stream, keeping retries out of the primary randomness. *)

val heartbeat_event : string
(** ["campaign.heartbeat"]: the event {!Campaign.run_source} emits per
    batch and the fleet monitor counts. *)

val lwe_instance : Hints.Lwe.t
(** SEAL-128 (q = 132120577, n = 1024, sigma = 3.2) — the instance all
    security estimates target. *)
