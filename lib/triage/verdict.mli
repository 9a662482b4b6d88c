(** The verdict taxonomy: what one fuzz trial's campaign outcome means.

    Classification is a total, ordered function of the trial's
    measured aggregates — invariant violations dominate grading
    questions, a misgrade dominates mere degradation — so equal
    scenarios yield equal verdicts everywhere.  [Crash] and [Timeout]
    are assigned by the fuzzer from the orchestrator's typed failure
    records (a worker that produced them never wrote measurements). *)

type measurements = {
  m_confident : int;
  m_tentative : int;
  m_sign_only : int;
  m_unknown : int;
  m_value_correct : int;
  m_value_total : int;
  m_sign_correct : int;
  m_sign_total : int;
  m_confident_wrong : int;  (** graded Confident yet sign wrong — the cardinal sin *)
  m_corrupt_skipped : int;
  m_results : int;  (** result-array length *)
  m_violations : string list;  (** violated invariant names, stable identifiers *)
}

type t =
  | Bit_exact
      (** the clean-run product intact: every coefficient's sign
          recovered, none lost to corruption or demoted to Unknown.
          (Exact values are only partially recoverable even on an
          honest device, so they don't gate this verdict.) *)
  | Degraded_hints  (** survived, but lost coefficients or signs — the expected fault response *)
  | Misgrade of int  (** coefficients graded Confident with a wrong sign: the gate lied *)
  | Invariant_violation of string  (** the pipeline broke its own accounting *)
  | Crash of string  (** worker exit/signal or exception family *)
  | Timeout of float  (** killed after this wall-clock budget *)

val classify : measurements -> t
(** Never returns [Crash] or [Timeout]. *)

val is_failure : t -> bool
(** Misgrade / invariant-violation / crash / timeout. *)

val kind : t -> string
(** Stable kebab-case tag, the signature's first token. *)

val detail : t -> string
(** The failure's shape, never its size: misgrades of 3 and of 7
    coefficients share a detail.  Crash details carry the status or
    exception family only — no message text — so signatures are stable
    under log noise. *)

val same_failure : t -> t -> bool
(** Equal [kind] and [detail] — the minimizer's reproduction test. *)

val crash_of_exn : exn -> t
(** Map an in-process replay exception to its [Crash] family. *)

val to_string : t -> string

(** {1 Codecs} — the worker's result file and [--json] output. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> t option
val measurements_to_json : measurements -> Obs.Json.t
