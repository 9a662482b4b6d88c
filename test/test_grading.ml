(* The grader stage: confidence-gate boundaries, the retry ladder and
   the constants single-source-of-truth contract.  A mock classifier
   (any {!Sca.Classifier.S} instance plugs into the gate) gives exact
   control over fits, confidences and posteriors, so every boundary of
   {!Reveal.Grading.classify_graded} is pinned at equality. *)

(* one shared profile + clean trace (profiling is the expensive part) *)
let fixture =
  lazy
    (let rng = Mathkit.Prng.create ~seed:0xD47EL () in
     let device = Reveal.Device.create ~n:64 () in
     let prof = Reveal.Campaign.profile ~per_value:80 device rng in
     let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
     let run = Reveal.Device.run_gaussian device ~scope_rng ~sampler_rng in
     (prof, run))

let first_window prof (run : Reveal.Device.run) =
  let samples = Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples in
  let wins = Sca.Segment.windows_fv prof.Reveal.Campaign.segment samples in
  (Sca.Segment.views samples (Array.sub wins 0 1) ~length:prof.Reveal.Campaign.window_length).(0)

(* a classifier stage instance with fully scripted outputs *)
let mock ?(value = 1) ?(sign = 1) ~sign_fit ~value_fit ~sign_conf posterior =
  let module M = struct
    type t = unit
    type scratch = unit

    let make_scratch () = ()

    let grade () () _ =
      {
        Sca.Attack.g_verdict = { Sca.Attack.sign; value; posterior };
        g_posterior_all = posterior;
        g_sign_confidence = sign_conf;
        g_sign_fit = sign_fit;
        g_value_fit = value_fit;
      }
  end in
  Reveal.Pipeline.Classifier ((module M), ())

let grade_of ?classifier ?(quality = Sca.Segment.Clean) ?(gate = Reveal.Campaign.default_gate) window =
  let prof, _ = Lazy.force fixture in
  let _, _, grade = Reveal.Grading.classify_graded ?classifier prof gate ~quality window in
  grade

let check_grade msg expected got =
  let pp g =
    match g with
    | Reveal.Grading.Confident -> "Confident"
    | Reveal.Grading.Tentative -> "Tentative"
    | Reveal.Grading.SignOnly -> "SignOnly"
    | Reveal.Grading.Unknown -> "Unknown"
  in
  Alcotest.(check string) msg (pp expected) (pp got)

(* --- constants SSOT -------------------------------------------------------- *)

let test_constants_ssot () =
  Alcotest.(check (array int)) "default_values -14..14"
    (Array.init 29 (fun i -> i - 14))
    Reveal.Constants.default_values;
  let g = Reveal.Campaign.default_gate in
  Alcotest.(check (float 0.0)) "gate confident" Reveal.Constants.gate_confident_threshold
    g.Reveal.Grading.confident_threshold;
  Alcotest.(check (float 0.0)) "gate tentative" Reveal.Constants.gate_tentative_threshold
    g.Reveal.Grading.tentative_threshold;
  Alcotest.(check (float 0.0)) "gate sign-only" Reveal.Constants.gate_sign_only_threshold
    g.Reveal.Grading.sign_only_threshold;
  Alcotest.(check int) "gate retry budget" Reveal.Constants.gate_retry_budget g.Reveal.Grading.retry_budget;
  Alcotest.(check bool) "sink targets the SSOT instance" true
    (Reveal.Sink.lwe_instance = Reveal.Constants.lwe_instance)

let test_profile_cache_writes_ssot_magic () =
  let prof, _ = Lazy.force fixture in
  let path = Filename.temp_file "reveal_ssot" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Reveal.Campaign.save_profile path prof;
      let ic = open_in_bin path in
      let magic = really_input_string ic (String.length Reveal.Constants.profile_magic) in
      let v0 = input_byte ic and v1 = input_byte ic in
      close_in ic;
      Alcotest.(check string) "file leads with the SSOT magic" Reveal.Constants.profile_magic magic;
      Alcotest.(check int) "little-endian SSOT version" Reveal.Constants.profile_version (v0 lor (v1 lsl 8)))

(* --- gate boundaries -------------------------------------------------------- *)

let test_fit_exactly_at_floor_passes () =
  let prof, run = Lazy.force fixture in
  let w = first_window prof run in
  let (Reveal.Pipeline.Classifier ((module C), cls)) = Reveal.Pipeline.classifier_of_profile prof in
  let g = C.grade cls (C.make_scratch cls) w in
  let sfit = g.Sca.Attack.g_sign_fit and vfit = g.Sca.Attack.g_value_fit in
  (* floors moved up to exactly the window's own fit: the boundary is
     inclusive (demotion is strictly-below), so the grade still carries
     value information *)
  let prof_at_floor = { prof with Reveal.Pipeline.sign_fit_floor = sfit; value_fit_floor = vfit } in
  let _, _, grade =
    Reveal.Grading.classify_graded prof_at_floor Reveal.Campaign.default_gate ~quality:Sca.Segment.Clean w
  in
  Alcotest.(check bool) "fit at floor keeps value information" true
    (grade = Reveal.Grading.Confident || grade = Reveal.Grading.Tentative);
  (* an epsilon above the window's fit and the value templates are
     out-of-distribution: at best the sign survives *)
  let prof_above = { prof_at_floor with Reveal.Pipeline.value_fit_floor = vfit +. 1e-6 } in
  let _, _, demoted =
    Reveal.Grading.classify_graded prof_above Reveal.Campaign.default_gate ~quality:Sca.Segment.Clean w
  in
  Alcotest.(check bool) "fit below floor demotes below Tentative" true
    (demoted = Reveal.Grading.SignOnly || demoted = Reveal.Grading.Unknown)

let test_empty_posterior_boundary () =
  let w = Mathkit.Fvec.of_array [| 0.0 |] in
  (* an empty posterior has joint confidence 0.0; the default tentative
     threshold is 0.0 and the comparison is inclusive, so the grade is
     Tentative — a posterior with no mass still names a verdict *)
  check_grade "empty posterior, default gate" Reveal.Grading.Tentative
    (grade_of ~classifier:(mock ~sign_fit:infinity ~value_fit:infinity ~sign_conf:1.0 [||]) w);
  (* with a positive tentative threshold it falls through to the sign rungs *)
  let gate = { Reveal.Campaign.default_gate with Reveal.Grading.tentative_threshold = 0.1 } in
  check_grade "empty posterior, strict gate, good sign" Reveal.Grading.SignOnly
    (grade_of ~gate ~classifier:(mock ~sign_fit:infinity ~value_fit:infinity ~sign_conf:0.6 [||]) w);
  check_grade "empty posterior, strict gate, bad sign" Reveal.Grading.Unknown
    (grade_of ~gate ~classifier:(mock ~sign_fit:infinity ~value_fit:infinity ~sign_conf:0.4 [||]) w)

let test_confidence_thresholds_inclusive () =
  let w = Mathkit.Fvec.of_array [| 0.0 |] in
  let at threshold = mock ~sign_fit:infinity ~value_fit:infinity ~sign_conf:1.0 [| (1, threshold) |] in
  check_grade "confidence exactly at the Confident threshold" Reveal.Grading.Confident
    (grade_of ~classifier:(at Reveal.Constants.gate_confident_threshold) w);
  check_grade "a hair below demotes to Tentative" Reveal.Grading.Tentative
    (grade_of ~classifier:(at (Reveal.Constants.gate_confident_threshold -. 1e-9)) w);
  (* a repaired window can never be Confident, whatever its confidence *)
  check_grade "Resynced quality bars Confident" Reveal.Grading.Tentative
    (grade_of ~quality:Sca.Segment.Resynced ~classifier:(at 1.0) w);
  (* sign-only threshold is inclusive too *)
  let below_value_floor conf = mock ~sign_fit:infinity ~value_fit:neg_infinity ~sign_conf:conf [| (1, 1.0) |] in
  check_grade "sign confidence exactly at threshold" Reveal.Grading.SignOnly
    (grade_of ~classifier:(below_value_floor Reveal.Constants.gate_sign_only_threshold) w);
  check_grade "sign confidence below threshold" Reveal.Grading.Unknown
    (grade_of ~classifier:(below_value_floor (Reveal.Constants.gate_sign_only_threshold -. 1e-9)) w);
  (* sign fit below its floor poisons everything *)
  check_grade "sign fit below floor is Unknown" Reveal.Grading.Unknown
    (grade_of ~classifier:(mock ~sign_fit:neg_infinity ~value_fit:infinity ~sign_conf:1.0 [| (1, 1.0) |]) w)

(* --- retry ladder ------------------------------------------------------------ *)

let test_unrecoverable_when_retries_exhausted () =
  let prof, _ = Lazy.force fixture in
  let noises = Array.make 8 0 in
  let flat = Mathkit.Fvec.of_array (Array.make 4096 0.0) in
  let retries = ref 0 in
  let results =
    Reveal.Grading.attack_resilient prof ~samples:flat ~noises
      ~retry:(fun _ ->
        incr retries;
        flat)
  in
  Alcotest.(check int) "retry budget honoured" Reveal.Campaign.default_gate.Reveal.Grading.retry_budget !retries;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "grade Unknown" true (r.Reveal.Grading.grade = Reveal.Grading.Unknown);
      Alcotest.(check bool) "recovery Unrecoverable" true (r.Reveal.Grading.recovery = Reveal.Grading.Unrecoverable);
      Alcotest.(check bool) "null verdict" true (r.Reveal.Grading.verdict = Reveal.Grading.null_verdict);
      let h = Reveal.Campaign.hint_of_result ~sigma:3.2 ~coordinate:0 r in
      Alcotest.(check bool) "contributes no hint" true (h.Hints.Hint.kind = Hints.Hint.None_useful))
    results

let test_retry_rescues_a_garbage_first_measurement () =
  let prof, run = Lazy.force fixture in
  let good = Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples in
  let flat = Mathkit.Fvec.of_array (Array.make (Mathkit.Fvec.length good) 0.0) in
  let results =
    Reveal.Grading.attack_resilient prof ~samples:flat ~noises:run.Reveal.Device.noises ~retry:(fun _ -> good)
  in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "rescued on the first retry" true (r.Reveal.Grading.recovery = Reveal.Grading.Retried 1);
      Alcotest.(check bool) "usable grade after rescue" true (r.Reveal.Grading.grade <> Reveal.Grading.Unknown))
    results

(* --- grade bookkeeping -------------------------------------------------------- *)

let test_grade_counts () =
  let result grade =
    {
      Reveal.Grading.actual = 0;
      verdict = Reveal.Grading.null_verdict;
      posterior_all = [| (0, 1.0) |];
      grade;
      recovery = Reveal.Grading.Clean;
    }
  in
  let results =
    Array.of_list
      (List.map result
         [
           Reveal.Grading.Confident;
           Reveal.Grading.Tentative;
           Reveal.Grading.Confident;
           Reveal.Grading.SignOnly;
           Reveal.Grading.Unknown;
           Reveal.Grading.Unknown;
         ])
  in
  let c, t, s, u = Reveal.Campaign.grade_counts results in
  Alcotest.(check (list int)) "counts" [ 2; 1; 1; 2 ] [ c; t; s; u ]

let test_hint_ladder () =
  let result grade posterior_all =
    {
      Reveal.Grading.actual = 3;
      verdict = { Sca.Attack.sign = 1; value = 3; posterior = posterior_all };
      posterior_all;
      grade;
      recovery = Reveal.Grading.Clean;
    }
  in
  let point_mass = [| (3, 1.0) |] in
  (match (Reveal.Campaign.hint_of_result ~sigma:3.2 ~coordinate:7 (result Reveal.Grading.Confident point_mass)).Hints.Hint.kind with
  | Hints.Hint.Perfect 3 -> ()
  | _ -> Alcotest.fail "Confident point-mass must integrate as a perfect hint");
  (match (Reveal.Campaign.hint_of_result ~sigma:3.2 ~coordinate:7 (result Reveal.Grading.Tentative point_mass)).Hints.Hint.kind with
  | Hints.Hint.Approximate { mean; variance; _ } ->
      Alcotest.(check (float 0.0)) "mean kept" 3.0 mean;
      Alcotest.(check (float 0.0)) "variance floored" 0.25 variance
  | _ -> Alcotest.fail "Tentative point-mass must be barred from hardening");
  match (Reveal.Campaign.hint_of_result ~sigma:3.2 ~coordinate:7 (result Reveal.Grading.SignOnly point_mass)).Hints.Hint.kind with
  | Hints.Hint.None_useful | Hints.Hint.Perfect _ -> Alcotest.fail "SignOnly must yield a sign hint"
  | _ -> ()

let suite =
  [
    ("constants: single source of truth", `Quick, test_constants_ssot);
    ("constants: profile cache magic/version", `Quick, test_profile_cache_writes_ssot_magic);
    ("gate: fit exactly at floor passes", `Quick, test_fit_exactly_at_floor_passes);
    ("gate: empty posterior boundary", `Quick, test_empty_posterior_boundary);
    ("gate: thresholds are inclusive", `Quick, test_confidence_thresholds_inclusive);
    ("retry: unrecoverable when budget exhausted", `Quick, test_unrecoverable_when_retries_exhausted);
    ("retry: garbage first measurement rescued", `Quick, test_retry_rescues_a_garbage_first_measurement);
    ("grades: grade_counts", `Quick, test_grade_counts);
    ("grades: hint-degradation ladder", `Quick, test_hint_ladder);
  ]
