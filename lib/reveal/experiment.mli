(** Per-table and per-figure experiment runners.

    One function per artefact of the paper's evaluation (Fig. 3,
    Tables I-IV) plus the supporting validations and the ablations
    called out in DESIGN.md.  Every runner is deterministic given the
    configuration's seed and returns its numbers in a record; the
    {!artefacts} registry renders each one as a {!Report.doc}.  The
    bench executable is a thin dispatcher over this module. *)

type config = {
  seed : int64;
  device_n : int;  (** coefficients per attacked trace *)
  per_value : int;  (** profiling windows per candidate value *)
  attack_traces : int;  (** full single-trace attacks to average over *)
}

val default : config
(** Scaled-down but shape-stable: n = 256, 400 windows/value,
    20 traces (5120 attacked coefficients). *)

val paper_scale : config
(** The paper's campaign: n = 1024, ~7600 windows/value (220k
    profiling samplings), 25 traces (25 600 attacked coefficients).
    Minutes, not seconds. *)

val golden_config : config
(** The campaign the report goldens are recorded with: n = 64, 80
    windows/value, 2 traces, the default seed. *)

val obs_golden_config : config
(** Tiny campaign for the observability golden: n = 64, 40
    windows/value, 2 traces — seconds, and byte-reproducible under the
    logical clock. *)

val obs_summary_demo : config -> string
(** Run a fully instrumented campaign (profile, resilient attack, hint
    integration) with a deterministic logical clock and a single worker
    domain, and return the rendered {!Obs.Summary} — the transcript
    pinned in [test/golden/obs_summary.txt] and shown in the README. *)

type env
(** Shared profiling/attack state reused by the table experiments. *)

val prepare : config -> env
val env_stats : env -> Campaign.stats
val env_profile : env -> Campaign.profile

(* --- figures ---------------------------------------------------------- *)

type fig3 = {
  full_portion : float array;  (** fig 3a: a 3-coefficient trace portion *)
  bursts : (int * int) array;  (** detected distribution-call peaks *)
  sub_zero : float array;  (** fig 3b: branch windows per case *)
  sub_pos : float array;
  sub_neg : float array;
}

val fig3 : config -> fig3

(* --- Table II ---------------------------------------------------------- *)

type table2_row = {
  secret : int;
  probabilities : (int * float) array;  (** posterior over -2..2 *)
  centered : float;
  variance : float;
}

val table2 : env -> table2_row list

(* --- Tables III / IV ----------------------------------------------------- *)

type security_report = {
  bikz_no_hints : float;
  bikz_with_hints : float;
  bits_no_hints : float;
  bits_with_hints : float;
  perfect_hints : int;
  approximate_hints : int;
}

type table3_report = {
  paper_mode : security_report;
      (** every measurement integrated at the confidence the paper's
          pipeline assigns it — the "probabilities rounded to 1 by
          floating-point precision" regime of Section IV-C, in which
          nearly all hints are perfect.  This is what Table III's 12.2
          bikz corresponds to. *)
  calibrated : security_report;
      (** same attack, but each hint carries its honest Bayesian
          posterior variance; the conservative residual hardness *)
}

val table3 : env -> table3_report
(** Full attack: posteriors of 1024 attacked coefficients as hints on
    the e2 coordinates of the SEAL-128 instance. *)

type table4_report = {
  base : security_report;  (** sign/zero hints only *)
  bikz_with_guess : float;
  guesses : int;
  guess_success_probability : float;
  ladder : Hints.Hint.ladder_step list;
      (** extension: the full hints-and-guesses trade-off of [31],
          guessing the most confident coefficients first *)
}

val table4 : env -> table4_report

(* --- supporting experiments ----------------------------------------------- *)

type sign_report = { correct : int; total : int; accuracy_percent : float }

val signs : env -> sign_report

type recovery_report = {
  n : int;
  coefficients_total : int;  (** 2n: e1 and e2 *)
  coefficients_exact : int;
  message_recovered_exactly : bool;  (** all-coefficient recovery succeeded *)
  residual_bikz : float;  (** estimator on the attack posteriors *)
  expected_wrong : float;  (** sum of per-coefficient error probabilities *)
  log2_full_recovery_probability : float;
      (** log2 of the probability every coefficient was guessed right
          in this one trace (posterior-based, independence assumed) *)
}

val recovery : config -> recovery_report
(** End-to-end: encrypt on the device, attack the trace, rebuild e1/e2
    and run eq. (3); also quantifies the remaining search space. *)

type toylattice_row = {
  toy_n : int;
  hints_given : int;
  predicted_bikz : float;
  solved : bool;
}

val toylattice : config -> toylattice_row list
(** Estimator-vs-solver validation: hint-reduced toy Ring-LWE
    instances handed to LLL/BKZ; solved iff the planted (u, e2) comes
    back.  More hints => lower predicted bikz => solvable. *)

(* --- defenses and ablations -------------------------------------------------- *)

type defense_report = {
  variant : string;
  sign_accuracy : float;  (** percent *)
  value_accuracy : float;
  bikz_after_attack : float;
}

val defenses : config -> defense_report list
(** Vulnerable vs v3.6-style branchless vs shuffled sampling order. *)

type tvla_row = {
  sampler : string;
  max_t_first_order : float;
  leaky_samples : int;
  max_t_second_order : float;
}

val tvla : config -> tvla_row list
(** Fixed-vs-random Welch t-test per firmware variant: certifies where
    each sampler leaks.  The branchless variant still failing TVLA is
    the quantitative form of the paper's "v3.6 may have a different
    vulnerability". *)

type averaging_row = { traces_averaged : int; value_accuracy : float }

val averaging : config -> averaging_row list
(** Multi-trace baseline: if the device (hypothetically) re-used its
    noise, averaging K traces would wash out the measurement noise and
    push value recovery toward 100%.  BFV encryption forbids that —
    fresh noise every run — which is exactly why the paper's attack
    must work from a single trace. *)

type ablation_row = { label : string; sign_accuracy : float; value_accuracy : float }

val ablate_leakage : config -> ablation_row list
val ablate_noise : config -> ablation_row list
val ablate_poi : config -> ablation_row list

type feature_row = { feature_method : string; accuracy : float }

val ablate_timing : config -> ablation_row list
(** Robustness to the CPU timing model: the attack must survive
    plausible variations of the core's latency table; a machine whose
    divider is too fast breaks the peak-based segmentation — a real
    limitation the paper's 1.5 MHz multi-cycle target avoids. *)

val ablate_features : config -> feature_row list
(** Feature-extraction comparison on the same profiling data: SOST
    points of interest (the pipeline default), plain SOSD POIs (the
    method the paper cites), PCA principal-subspace templates
    (Archambeau et al.) and correlation-selected POIs.  Single 29-class
    templates, so the numbers isolate the feature choice. *)

(* --- fault tolerance ---------------------------------------------------------- *)

type fault_sweep_row = {
  intensity : float;  (** 0.0 = clean, 1.0 = the full reference fault load *)
  recovery_rate : float;  (** fraction of coefficients graded >= Tentative *)
  sign_accuracy : float;  (** percent *)
  value_accuracy : float;  (** percent *)
  confident : int;
  tentative : int;
  sign_only : int;
  unknown : int;
  retried : int;  (** coefficients rescued by re-measurement *)
  unrecoverable : int;
  perfect_hints : int;
  approximate_hints : int;
  none_hints : int;
  graded_bikz : float;  (** hardness under the degraded hint ladder *)
}

val fault_sweep : ?intensities:float array -> config -> fault_sweep_row list
(** Sweep the measurement-fault intensity over the full pipeline:
    profile once fault-free, then attack with the same seeds at each
    intensity through {!Campaign.run_attacks_resilient} and integrate
    the graded hints.  Deterministic given the config seed.  Default
    intensities: 0, 0.25, 0.5, 0.75, 1. *)

val fault_sweep_check : fault_sweep_row list -> (unit, string) result
(** The sweep's two invariants: recovery rate is monotone
    non-increasing in intensity (up to a 0.02 tolerance) and no row's
    bikz under-reports hardness versus the clean first row by more
    than 0.5.  [Error] carries a description of every violation. *)

type zero_consistency = {
  coefficients : int;
  verdict_mismatches : int;  (** must be 0 *)
  grade_downgrades : int;  (** resilient grades below Tentative; must be 0 *)
  bikz_classic : float;
  bikz_graded : float;  (** must equal [bikz_classic] *)
}

val fault_zero_consistency : config -> zero_consistency
(** Regression gate: the resilient pipeline (with an explicit no-op
    fault config installed) run against the classic pipeline on the
    same seeds — verdicts must match coefficient for coefficient and
    the graded hint ladder must reproduce the calibrated bikz. *)

(* --- rendered artefacts -------------------------------------------------------------- *)

(** Every artefact renders as a {!Report.doc}: the historical
    byte-exact text plus a JSON rendering of the same rows, both
    produced from one declaration (see {!Report.table}).  The
    {!artefacts} registry is the way in; the fault-sweep command also
    renders its two reports directly. *)

val fault_sweep_doc : fault_sweep_row list -> Report.doc
val zero_consistency_doc : zero_consistency -> Report.doc

val artefacts : (string * (config -> env Lazy.t -> Report.doc)) list
(** Name -> builder registry, one entry per artefact of the paper's
    evaluation.  Builders that need a profiled campaign force the
    [env] they are handed, which must be [prepare] of the same
    config; sharing one lazy env across builders profiles once.  Each
    build is deterministic in [config.seed]. *)

val artefact_names : string list

val golden_artefacts : (string * string) list
(** The artefacts pinned byte for byte at {!golden_config}, each with
    its golden's file name.  The golden tests and the generator that
    rewrites the goldens both walk this one list. *)

val artefact : string -> config -> Report.doc option
(** Look up and build one artefact; [None] for an unknown name. *)
