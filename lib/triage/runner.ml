(* Execute one trial.  The scenario always attacks FROM a recorded
   archive — the worker records the faulted campaign first, then
   replays it — so a trial's outcome is identical to a deterministic
   replay of its archive, which is exactly what the minimizer bisects
   over.  (A live campaign's retry ladder would draw fresh randomness
   the replay cannot, and the two paths would disagree.) *)

(* Only the thresholds differ: replayed items cannot re-measure, so a
   trial never spends a gate's retry budget. *)
let gate_of = function
  | Plan.Default -> Reveal.Grading.default_gate
  | Plan.Aggressive ->
      { Reveal.Grading.default_gate with confident_threshold = 0.3; tentative_threshold = 0.0; sign_only_threshold = 0.2 }
  | Plan.Paranoid ->
      { Reveal.Grading.default_gate with confident_threshold = 0.99; tentative_threshold = 0.5; sign_only_threshold = 0.9 }

(* The Aggressive profile also drops the goodness-of-fit floors: they
   are the out-of-distribution tripwire, and the misgrade scenario is
   precisely a pipeline that lost its tripwire. *)
let effective_profile gate prof =
  match gate with
  | Plan.Aggressive -> { prof with Reveal.Campaign.sign_fit_floor = neg_infinity; value_fit_floor = neg_infinity }
  | Plan.Default | Plan.Paranoid -> prof

(* Profiling is fault-free (templates model the honest device) and
   seeded by the trial seed alone, so any process — worker, fuzzer,
   minimizer — rebuilds bit-identical templates from the trial row. *)
let profile_for t =
  let device = Reveal.Device.create ~variant:t.Plan.variant ~n:t.Plan.n () in
  let rng = Mathkit.Prng.create ~seed:(Int64.of_int t.Plan.seed) () in
  effective_profile t.Plan.gate (Reveal.Campaign.profile ~per_value:t.Plan.per_value device rng)

let record_archive t ~path =
  let device =
    Reveal.Device.create ~variant:t.Plan.variant ~fault:(Power.Fault.of_intensity t.Plan.intensity) ~n:t.Plan.n ()
  in
  let rng = Mathkit.Prng.create ~seed:(Int64.of_int t.Plan.seed) () in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  Reveal.Device.record device ~path ~seed:(Int64.of_int t.Plan.seed) ~traces:t.Plan.traces ~scope_rng ~sampler_rng

let attack ?(obs = Obs.Ctx.disabled) t prof ~archive =
  (* one domain: trials are tiny and run many-per-machine under the
     orchestrator; nested domain pools would only fight each other *)
  Reveal.Campaign.run_source ~obs ~expected:(t.Plan.traces * t.Plan.n) ~domains:1 ~gate:(gate_of t.Plan.gate) prof
    (Reveal.Source.archive_replay archive)

let measure ?obs t prof ~archive =
  let stats, results = attack ?obs t prof ~archive in
  let confident, tentative, sign_only, unknown = Reveal.Campaign.grade_counts results in
  let violations = ref [] in
  let check name ok = if not ok then violations := name :: !violations in
  let nresults = Array.length results in
  check "grade-counts-sum" (confident + tentative + sign_only + unknown = nresults);
  check "correct-exceeds-total"
    (stats.Reveal.Campaign.value_correct <= stats.Reveal.Campaign.value_total
    && stats.Reveal.Campaign.sign_correct <= stats.Reveal.Campaign.sign_total);
  check "results-length"
    (nresults = (t.Plan.traces - stats.Reveal.Campaign.corrupt_skipped) * t.Plan.n);
  {
    Verdict.m_confident = confident;
    m_tentative = tentative;
    m_sign_only = sign_only;
    m_unknown = unknown;
    m_value_correct = stats.Reveal.Campaign.value_correct;
    m_value_total = stats.Reveal.Campaign.value_total;
    m_sign_correct = stats.Reveal.Campaign.sign_correct;
    m_sign_total = stats.Reveal.Campaign.sign_total;
    m_confident_wrong = Reveal.Campaign.confident_mismatches results;
    m_corrupt_skipped = stats.Reveal.Campaign.corrupt_skipped;
    m_results = nresults;
    m_violations = List.rev !violations;
  }

let run ?(obs = Obs.Ctx.disabled) ?archive t =
  let prof = profile_for t in
  match archive with
  | Some path -> measure ~obs t prof ~archive:path
  | None ->
      let path = Filename.temp_file "reveal_trial" ".rvt" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Obs.Ctx.span obs "trial.record" (fun () -> record_archive t ~path);
          measure ~obs t prof ~archive:path)

let record_and_measure ?(obs = Obs.Ctx.disabled) t ~archive =
  let prof = profile_for t in
  Obs.Ctx.span obs "trial.record" (fun () -> record_archive t ~path:archive);
  measure ~obs t prof ~archive

(* The minimizer's probe: never raises — an exception IS a verdict
   (the crash family), because a candidate archive that crashes the
   pipeline reproduces a crash finding. *)
let replay_verdict t prof ~archive =
  match measure t prof ~archive with
  | m -> Verdict.classify m
  | exception (Unix.Unix_error _ as e) -> raise e
  | exception e -> Verdict.crash_of_exn e
