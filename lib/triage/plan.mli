(** The fuzzer's trial planner: one master seed, one table of
    scenarios.

    A trial is a complete, self-describing campaign scenario — fault
    intensity x sampler variant x campaign seed x gate profile x
    sizes.  Every downstream artefact (worker argv,
    verdict signature, repro line, minimizer replay) is a pure
    function of the trial record, so reproducing a finding never
    needs the fuzzer's state, only this table's row (DESIGN.md
    section 14). *)

type gate_profile =
  | Default  (** {!Reveal.Grading.default_gate} *)
  | Aggressive
      (** thresholds floored and the profile's goodness-of-fit floors
          disabled: accepts garbage confidently — the planted-misgrade
          scenario *)
  | Paranoid  (** thresholds raised (0.99/0.5/0.9) *)

type trial = {
  id : int;  (** row in the plan — not part of the scenario identity *)
  variant : Riscv.Sampler_prog.variant;
  intensity : float;  (** {!Power.Fault.of_intensity} scale *)
  seed : int;  (** campaign + profiling seed *)
  gate : gate_profile;
  traces : int;
  n : int;  (** coefficients per run (pinned to {!trial_n}) *)
  per_value : int;  (** profiling windows per candidate value *)
}

val trial_n : int
(** 64: the smallest cheap n that still hosts every candidate value
    twice per profiling run (29 values need n >= 58). *)

val plan : master_seed:int -> trials:int -> trial array
(** Deterministic: same master seed, same table — and a longer table
    extends a shorter one (the stream is sequential, so trial [i] is
    identical for every [trials > i]).
    @raise Invalid_argument when [trials < 0]. *)

val describe : trial -> string
(** One stable line of [key=value] pairs (no paths, no timestamps). *)

val flags : trial -> string list
(** The scenario as [reveal trial] flags ([--variant ... --per-value
    K]): the fuzzer's worker argv and the repro line both start with
    these. *)

val repro_command : ?archive:string -> exe:string -> trial -> string
(** The one-line repro contract: [exe trial] followed by {!flags};
    with [archive], the line replays that archive instead of
    re-recording ([--archive]). *)

val to_json : trial -> Obs.Json.t

(** {1 Field codecs} — name tables shared by the CLI flags and the
    signature format, so the two can never drift. *)

val variant_names : (string * Riscv.Sampler_prog.variant) list
val gate_names : (string * gate_profile) list
val variant_to_string : Riscv.Sampler_prog.variant -> string
val gate_to_string : gate_profile -> string
