(* The triage subsystem: trial-plan determinism, signature stability
   under log noise, verdict classification, the known-signature store,
   the deterministic corpus minimizer, and the fuzz -> dedupe ->
   minimize loop end to end against the real CLI binary. *)

let with_work_dir f =
  let wd = Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_triage_test" () in
  Fun.protect ~finally:(fun () -> Fabric.Orchestrator.remove_dir wd) (fun () -> f wd)

(* --- plan ------------------------------------------------------------------- *)

let qcheck_plan_deterministic =
  QCheck.Test.make ~count:120 ~name:"plan: deterministic, prefix-stable, fields from the pools"
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 48) (int_range 0 48))
    (fun (master_seed, a, b) ->
      let lo = min a b and hi = max a b in
      let p1 = Triage.Plan.plan ~master_seed ~trials:hi in
      let p2 = Triage.Plan.plan ~master_seed ~trials:hi in
      let short = Triage.Plan.plan ~master_seed ~trials:lo in
      p1 = p2
      && Array.to_list (Array.sub p1 0 lo) = Array.to_list short
      && Array.for_all
           (fun (t : Triage.Plan.trial) ->
             t.Triage.Plan.n = Triage.Plan.trial_n
             && t.Triage.Plan.intensity >= 0.0
             && t.Triage.Plan.traces >= 1
             && t.Triage.Plan.per_value >= 1
             && t.Triage.Plan.seed >= 0)
           p1
      && Array.to_list p1 = List.mapi (fun i t -> { t with Triage.Plan.id = i }) (Array.to_list p1))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_plan_describe_stable () =
  let t = (Triage.Plan.plan ~master_seed:7 ~trials:1).(0) in
  (* the id is a table row, not scenario identity *)
  Alcotest.(check string) "describe is id-independent" (Triage.Plan.describe t)
    (Triage.Plan.describe { t with Triage.Plan.id = 99 })

let test_repro_command_shape () =
  let t = (Triage.Plan.plan ~master_seed:7 ~trials:1).(0) in
  let line = Triage.Plan.repro_command ~exe:"reveal" t in
  List.iter
    (fun needle -> Alcotest.(check bool) ("repro line mentions " ^ needle) true (contains line needle))
    [ "reveal trial"; "--variant"; "--seed"; "--segmenter"; "--gate"; "--per-value" ];
  let with_archive = Triage.Plan.repro_command ~archive:"/tmp/a.rvt" ~exe:"reveal" t in
  Alcotest.(check bool) "archive form appends --archive" true (contains with_archive "--archive '/tmp/a.rvt'")

(* --- verdict classification -------------------------------------------------- *)

let clean =
  {
    Triage.Verdict.m_confident = 56;
    m_tentative = 60;
    m_sign_only = 8;
    m_unknown = 0;
    m_value_correct = 70;
    m_value_total = 128;
    m_sign_correct = 128;
    m_sign_total = 128;
    m_confident_wrong = 0;
    m_corrupt_skipped = 0;
    m_results = 128;
    m_violations = [];
  }

let test_classify () =
  let open Triage.Verdict in
  Alcotest.(check string) "clean run with partial values is bit-exact" "bit-exact" (kind (classify clean));
  Alcotest.(check string) "a confidently wrong sign is a misgrade" "misgrade"
    (kind (classify { clean with m_confident_wrong = 2 }));
  Alcotest.(check string) "violations dominate misgrades" "invariant-violation"
    (kind (classify { clean with m_confident_wrong = 2; m_violations = [ "results-length" ] }));
  Alcotest.(check string) "a wrong sign degrades" "degraded-hints"
    (kind (classify { clean with m_sign_correct = 127 }));
  Alcotest.(check string) "an unknown coefficient degrades" "degraded-hints"
    (kind (classify { clean with m_unknown = 1 }));
  Alcotest.(check string) "a corrupt-skipped record degrades" "degraded-hints"
    (kind (classify { clean with m_corrupt_skipped = 1 }));
  Alcotest.(check string) "an empty campaign cannot be bit-exact" "degraded-hints"
    (kind (classify { clean with m_sign_correct = 0; m_sign_total = 0; m_results = 0 }));
  List.iter
    (fun (v, failing) -> Alcotest.(check bool) (to_string v ^ " failure flag") failing (is_failure v))
    [
      (Bit_exact, false);
      (Degraded_hints, false);
      (Misgrade 3, true);
      (Invariant_violation "results-length", true);
      (Crash "exit-2", true);
      (Timeout 1.5, true);
    ]

let test_verdict_json_roundtrip () =
  List.iter
    (fun v ->
      match Triage.Verdict.of_json (Triage.Verdict.to_json v) with
      | Some v' -> Alcotest.(check string) "verdict JSON round-trips" (Triage.Verdict.to_string v) (Triage.Verdict.to_string v')
      | None -> Alcotest.failf "verdict %s did not decode" (Triage.Verdict.to_string v))
    [
      Triage.Verdict.Bit_exact;
      Triage.Verdict.Degraded_hints;
      Triage.Verdict.Misgrade 4;
      Triage.Verdict.Invariant_violation "grade-counts-sum";
      Triage.Verdict.Crash "exception-corrupt";
      Triage.Verdict.Timeout 12.5;
    ]

(* --- signatures -------------------------------------------------------------- *)

let trial0 = (Triage.Plan.plan ~master_seed:11 ~trials:1).(0)

let qcheck_signature_log_noise =
  QCheck.Test.make ~count:200 ~name:"signature: stable under exception-message noise"
    QCheck.(pair (string_of_size QCheck.Gen.(0 -- 200)) (string_of_size QCheck.Gen.(0 -- 200)))
    (fun (msg_a, msg_b) ->
      let sig_of m = Triage.Signature.of_verdict trial0 (Triage.Verdict.crash_of_exn (Failure m)) in
      let inv_of m = Triage.Signature.of_verdict trial0 (Triage.Verdict.crash_of_exn (Invalid_argument m)) in
      sig_of msg_a = sig_of msg_b && inv_of msg_a = inv_of msg_b && sig_of msg_a <> inv_of msg_a)

let test_signature_fields () =
  let s k = Triage.Signature.of_verdict trial0 k in
  Alcotest.(check string) "misgrade size is not part of the signature" (s (Triage.Verdict.Misgrade 3))
    (s (Triage.Verdict.Misgrade 7));
  Alcotest.(check bool) "timeout duration is not part of the signature" true
    (s (Triage.Verdict.Timeout 1.0) = s (Triage.Verdict.Timeout 99.0));
  let other_seed = { trial0 with Triage.Plan.seed = trial0.Triage.Plan.seed + 1; id = 5; traces = 9; per_value = 99 } in
  Alcotest.(check string) "seed/id/sizes are not part of the signature"
    (Triage.Signature.of_verdict trial0 (Triage.Verdict.Misgrade 1))
    (Triage.Signature.of_verdict other_seed (Triage.Verdict.Misgrade 1));
  let other_gate = { trial0 with Triage.Plan.gate = Triage.Plan.Paranoid } in
  Alcotest.(check bool) "the gate profile is part of the signature" true
    (Triage.Signature.of_verdict trial0 (Triage.Verdict.Misgrade 1)
    <> Triage.Signature.of_verdict other_gate (Triage.Verdict.Misgrade 1))

let test_store_roundtrip () =
  with_work_dir @@ fun wd ->
  let path = Filename.concat wd "known.txt" in
  let store = Triage.Signature.of_list [ "b sig"; "a sig"; "b sig" ] in
  Alcotest.(check int) "duplicates collapse" 2 (Triage.Signature.size store);
  Alcotest.(check (list string)) "to_list is sorted" [ "a sig"; "b sig" ] (Triage.Signature.to_list store);
  Triage.Signature.save path store;
  Alcotest.(check (list string)) "save/load round-trips" [ "a sig"; "b sig" ]
    (Triage.Signature.to_list (Triage.Signature.load path));
  Triage.Signature.append path [ "c sig" ];
  Alcotest.(check (list string)) "append extends the file" [ "a sig"; "b sig"; "c sig" ]
    (Triage.Signature.to_list (Triage.Signature.load path));
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "\n# a comment\n   \n  d sig  \n";
  close_out oc;
  Alcotest.(check (list string)) "comments and blanks are skipped, whitespace trimmed"
    [ "a sig"; "b sig"; "c sig"; "d sig" ]
    (Triage.Signature.to_list (Triage.Signature.load path));
  Alcotest.(check int) "load_opt of a missing file is empty" 0
    (Triage.Signature.size (Triage.Signature.load_opt (Filename.concat wd "nope.txt")))

(* --- minimizer over synthetic archives ---------------------------------------- *)

(* Tiny hand-built archives: n = 4 labels, 1 sample/cycle, no events.
   The "failure" a probe looks for is a marker record (noises.(0) = 7)
   whose samples still contain the marker value 42.0 — value-based, so
   it survives the span crop's index shift. *)
let write_synthetic path records =
  let w =
    Traceio.Archive.open_writer ~variant:Riscv.Sampler_prog.Vulnerable ~n:4 ~seed:1L ~samples_per_cycle:1
      ~noise_sigma:0.0 path
  in
  List.iter
    (fun (noises, samples) ->
      Traceio.Archive.append w ~noises
        { Power.Ptrace.samples; samples_per_cycle = 1; event_start = [||]; event_pc = [||] })
    records;
  Traceio.Archive.close_writer w

let marker_present path =
  Traceio.Archive.fold path
    (fun acc r ->
      acc
      || (r.Traceio.Archive.noises.(0) = 7 && Array.exists (fun s -> s = 42.0) r.Traceio.Archive.trace.Power.Ptrace.samples))
    false

let synthetic_records () =
  List.init 8 (fun i ->
      let samples = Array.init 32 (fun j -> float_of_int ((i * 100) + j)) in
      if i = 5 then begin
        samples.(10) <- 42.0;
        ([| 7; 0; 0; 0 |], samples)
      end
      else ([| 1; 0; 0; 0 |], samples))

let test_archive_rewrite () =
  with_work_dir @@ fun wd ->
  let src = Filename.concat wd "src.rvt" and dst = Filename.concat wd "dst.rvt" in
  write_synthetic src (synthetic_records ());
  let kept = Traceio.Archive.rewrite ~keep:[ 1; 5 ] ~span:(10, 13) ~src ~dst () in
  Alcotest.(check int) "rewrite keeps the subset" 2 kept;
  let records = List.rev (Traceio.Archive.fold dst (fun acc r -> r :: acc) []) in
  Alcotest.(check int) "records resequence from zero" 0 (List.nth records 0).Traceio.Archive.index;
  List.iter
    (fun (r : Traceio.Archive.record) ->
      Alcotest.(check int) "samples cropped to the span" 3 (Array.length r.Traceio.Archive.trace.Power.Ptrace.samples))
    records;
  Alcotest.(check int) "labels of kept record survive" 7 (List.nth records 1).Traceio.Archive.noises.(0);
  Alcotest.(check bool) "the marker sample is inside the crop" true
    ((List.nth records 1).Traceio.Archive.trace.Power.Ptrace.samples.(0) = 42.0)

let test_minimize_synthetic () =
  with_work_dir @@ fun wd ->
  let src = Filename.concat wd "src.rvt" in
  write_synthetic src (synthetic_records ());
  let dst1 = Filename.concat wd "min1.rvt" and dst2 = Filename.concat wd "min2.rvt" in
  let reduce dst =
    match Triage.Minimize.reduce ~check:marker_present ~work_dir:wd ~src ~dst with
    | Ok report -> report
    | Error e -> Alcotest.failf "reduce failed: %s" e
  in
  let r1 = reduce dst1 in
  Alcotest.(check (list int)) "only the marker record survives" [ 5 ] r1.Triage.Minimize.kept;
  (match r1.Triage.Minimize.span with
  | Some (lo, hi) ->
      Alcotest.(check bool) "span still covers the marker sample" true (lo <= 10 && hi > 10);
      Alcotest.(check int) "span is minimal: exactly the marker sample" 1 (hi - lo)
  | None -> Alcotest.fail "expected a sample-span crop");
  Alcotest.(check bool) "the minimized archive is strictly smaller" true
    (r1.Triage.Minimize.reduced_bytes < r1.Triage.Minimize.original_bytes);
  Alcotest.(check bool) "the minimized archive still reproduces" true (marker_present dst1);
  (* determinism: same src, same probe, byte-identical walk and result *)
  let r2 = reduce dst2 in
  Alcotest.(check bool) "two reductions take identical walks" true (r1 = r2);
  let read p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check bool) "two reductions emit identical bytes" true (read dst1 = read dst2);
  (* a probe nothing satisfies is a typed error, not a loop *)
  match Triage.Minimize.reduce ~check:(fun _ -> false) ~work_dir:wd ~src ~dst:dst2 with
  | Ok _ -> Alcotest.fail "an unreproducible source must not minimize"
  | Error e -> Alcotest.(check bool) "error text is non-empty" true (e <> "")

(* --- fuzz end to end ----------------------------------------------------------- *)

let exe = Filename.concat (Filename.concat ".." "bin") "reveal_cli.exe"
let require_exe () = if not (Sys.file_exists exe) then Alcotest.skip ()

(* One clean trial (bit-exact) and one planted misgrade: the aggressive
   gate drops the fit floors, so a faulted campaign is accepted
   confidently — the scenario the gate exists to prevent. *)
let planted_trials =
  let mk id gate intensity =
    {
      Triage.Plan.id;
      variant = Riscv.Sampler_prog.Vulnerable;
      intensity;
      seed = 123;
      segmenter = Triage.Plan.Resilient;
      gate;
      traces = 1;
      n = Triage.Plan.trial_n;
      per_value = 24;
    }
  in
  [| mk 0 Triage.Plan.Default 0.0; mk 1 Triage.Plan.Aggressive 0.75 |]

let test_fuzz_end_to_end () =
  require_exe ();
  with_work_dir @@ fun wd ->
  let run ~dir ~known =
    Triage.Fuzz.run ~exe ~work_dir:(Filename.concat wd dir) ~workers:2 ~timeout_s:(Some 300.0) ~known
      planted_trials
  in
  let batch = run ~dir:"first" ~known:Triage.Signature.empty in
  Alcotest.(check int) "clean trial passes" 0
    (match batch.Triage.Fuzz.b_outcomes.(0).Triage.Fuzz.o_status with Triage.Fuzz.Passed -> 0 | _ -> 1);
  Alcotest.(check string) "clean trial is bit-exact" "bit-exact"
    (Triage.Verdict.kind batch.Triage.Fuzz.b_outcomes.(0).Triage.Fuzz.o_verdict);
  let o = batch.Triage.Fuzz.b_outcomes.(1) in
  Alcotest.(check string) "planted trial misgrades" "misgrade" (Triage.Verdict.kind o.Triage.Fuzz.o_verdict);
  Alcotest.(check bool) "planted misgrade is novel" true (o.Triage.Fuzz.o_status = Triage.Fuzz.Novel);
  Alcotest.(check int) "one novel failure" 1 batch.Triage.Fuzz.b_novel;
  (match o.Triage.Fuzz.o_minimized with
  | None -> Alcotest.fail "novel failure was not auto-minimized"
  | Some (path, report) ->
      Alcotest.(check bool) "minimized archive exists" true (Sys.file_exists path);
      Alcotest.(check bool) "minimized archive is no larger" true
        (report.Triage.Minimize.reduced_bytes <= report.Triage.Minimize.original_bytes);
      let t = o.Triage.Fuzz.o_trial in
      let prof = Triage.Runner.profile_for t in
      let v = Triage.Runner.replay_verdict t prof ~archive:path in
      Alcotest.(check bool) "minimized archive reproduces the same failure" true
        (Triage.Verdict.same_failure v o.Triage.Fuzz.o_verdict));
  (* the reported signature graduates to known: the rerun is quiet *)
  let known = Triage.Signature.of_list [ o.Triage.Fuzz.o_signature ] in
  let batch2 = run ~dir:"second" ~known in
  Alcotest.(check int) "rerun surfaces nothing novel" 0 batch2.Triage.Fuzz.b_novel;
  Alcotest.(check int) "rerun recognises the known failure" 1 batch2.Triage.Fuzz.b_known;
  Alcotest.(check bool) "known failures are not re-minimized" true
    (batch2.Triage.Fuzz.b_outcomes.(1).Triage.Fuzz.o_minimized = None);
  Alcotest.(check string) "signatures are stable across runs" o.Triage.Fuzz.o_signature
    batch2.Triage.Fuzz.b_outcomes.(1).Triage.Fuzz.o_signature

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_plan_deterministic;
    ("plan: describe is id-independent", `Quick, test_plan_describe_stable);
    ("plan: repro-command contract", `Quick, test_repro_command_shape);
    ("verdict: classification rules", `Quick, test_classify);
    ("verdict: JSON round-trips", `Quick, test_verdict_json_roundtrip);
    QCheck_alcotest.to_alcotest qcheck_signature_log_noise;
    ("signature: typed fields only", `Quick, test_signature_fields);
    ("signature: store round-trip", `Quick, test_store_roundtrip);
    ("archive: rewrite subset + span", `Quick, test_archive_rewrite);
    ("minimize: synthetic corpus, deterministic walk", `Quick, test_minimize_synthetic);
    ("fuzz: plant, dedupe, auto-minimize (end to end)", `Slow, test_fuzz_end_to_end);
  ]
