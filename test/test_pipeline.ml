(* Integration tests: device + campaign + experiments glued together.
   Sizes are kept small; the assertions target structure and the
   paper's hard claims (100% sign recovery, zero-class exactness,
   hint monotonicity), not exact percentages. *)

let small_config =
  { Reveal.Experiment.default with Reveal.Experiment.device_n = 64; per_value = 80; attack_traces = 2 }

(* one shared env for the experiment-level tests (profiling is the
   expensive part) *)
let env = lazy (Reveal.Experiment.prepare small_config)

let rng () = Mathkit.Prng.create ~seed:4242L ()

(* --- Device ------------------------------------------------------------- *)

let test_device_run_deterministic () =
  let mk () =
    let g = rng () in
    let device = Reveal.Device.create ~n:8 () in
    Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "same noises" true (a.Reveal.Device.noises = b.Reveal.Device.noises);
  Alcotest.(check bool) "same trace" true
    (a.Reveal.Device.trace.Power.Ptrace.samples = b.Reveal.Device.trace.Power.Ptrace.samples)

let test_device_poly_matches_assignment () =
  let g = rng () in
  let device = Reveal.Device.create ~n:8 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
  let q = 132120577 in
  Array.iteri
    (fun i z ->
      let expected = if z > 0 then z else if z < 0 then q + z else 0 in
      Alcotest.(check int) (Printf.sprintf "coeff %d" i) expected run.Reveal.Device.poly.(0).(i))
    run.Reveal.Device.noises

let test_device_trailing_dummy_windows () =
  let g = rng () in
  let device = Reveal.Device.create ~n:8 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
  let wins =
    Sca.Segment.windows_fv Sca.Segment.default (Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples)
  in
  Alcotest.(check int) "n+1 windows (dummy included)" 9 (Array.length wins)

let test_device_draw_queue_length_checked () =
  let g = rng () in
  let device = Reveal.Device.create ~n:4 () in
  Alcotest.check_raises "short queue" (Invalid_argument "Device: draw queue length must equal n") (fun () ->
      ignore (Reveal.Device.run device ~scope_rng:g ~draws:[| (1, 0) |]))

let test_device_shuffled_places_values () =
  let g = rng () in
  let device = Reveal.Device.create ~variant:Riscv.Sampler_prog.Shuffled ~n:4 () in
  let perm = [| 2; 0; 3; 1 |] in
  let run = Reveal.Device.run_shuffled device ~scope_rng:g ~sampler_rng:g ~perm in
  let q = 132120577 in
  Array.iteri
    (fun d z ->
      let expected = if z > 0 then z else if z < 0 then q + z else 0 in
      Alcotest.(check int) (Printf.sprintf "draw %d at coeff %d" d perm.(d)) expected
        run.Reveal.Device.poly.(0).(perm.(d)))
    run.Reveal.Device.noises

let test_device_variant_traces_differ () =
  let g1 = rng () and g2 = rng () in
  let v32 = Reveal.Device.create ~n:4 () in
  let v36 = Reveal.Device.create ~variant:Riscv.Sampler_prog.Branchless ~n:4 () in
  let r32 = Reveal.Device.run_gaussian v32 ~scope_rng:g1 ~sampler_rng:g1 in
  let r36 = Reveal.Device.run_gaussian v36 ~scope_rng:g2 ~sampler_rng:g2 in
  Alcotest.(check bool) "same noise stream" true (r32.Reveal.Device.noises = r36.Reveal.Device.noises);
  Alcotest.(check bool) "same poly output" true (r32.Reveal.Device.poly = r36.Reveal.Device.poly);
  Alcotest.(check bool) "different traces" true
    (r32.Reveal.Device.trace.Power.Ptrace.samples <> r36.Reveal.Device.trace.Power.Ptrace.samples)

(* Profiling, record/replay identity and retry re-measurement all
   replay profiling_draw's stream: it must be exactly one clipped draw
   from a fresh polar generator, keeping only its rejection count. *)
let test_profiling_draw_is_one_clipped_draw () =
  let device = Reveal.Device.create ~n:4 () in
  for seed = 1 to 8 do
    let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
    for v = -14 to 14 do
      let reference = Mathkit.Prng.copy g in
      let _, rejections =
        Mathkit.Gaussian.clipped_draw (Mathkit.Gaussian.polar ()) reference Mathkit.Gaussian.seal_default
      in
      Alcotest.(check (pair int int)) "forced value, honest rejection count" (v, rejections)
        (Reveal.Device.profiling_draw device g ~value:v);
      Alcotest.(check int64) "same stream consumed" (Mathkit.Prng.bits64 reference) (Mathkit.Prng.bits64 g)
    done
  done

(* [Device.run] is the staged composition — a fresh RAM, a CPU whose
   tracer records every event, [Synth.synthesize] over the event array,
   then [Fault.apply] — bit for bit, for every firmware variant, a
   custom cycle model and a faulted device.  n = 64 and n = 256 devices
   alternate twice in one domain, so the domain's RAM, synthesis
   columns and fault scratch pass between lengths and variants.  (The
   firmware reads no RAM it did not stage or write, so an uncleared RAM
   would not show here; [Memory.clear] is pinned in test_riscv.) *)
let staged ?cycle_model ?fault ~variant ~n ~perm ~scope_rng draws =
  let module SP = Riscv.Sampler_prog in
  let layout = SP.default_layout in
  let draws = Array.append draws [| (0, 0) |] in
  let mem = Riscv.Memory.create layout.SP.ram_size in
  Riscv.Memory.load_program mem 0 (SP.build ~variant ~n:(n + 1) ~k:1 ()).Riscv.Asm.words;
  SP.stage_moduli mem layout [| 132120577 |];
  (match perm with
  | Some p -> SP.stage_permutation mem layout (Array.append p [| n |])
  | None -> if variant = SP.Shuffled then SP.stage_permutation mem layout (Array.init (n + 1) Fun.id));
  (match variant with
  | SP.Cdt_table ->
      let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
      SP.stage_cdt_table mem (SP.cdt_thresholds ~sigma);
      let force = Mathkit.Prng.split scope_rng in
      SP.install_cdt_port mem ~draws:(Array.map (fun (v, _) -> SP.cdt_force_draw force ~sigma ~value:v) draws)
  | _ -> SP.install_noise_port mem ~draws);
  let r = Riscv.Trace.recorder () in
  let cpu = Riscv.Cpu.create ~tracer:(Riscv.Trace.record r) ?cycle_model mem in
  ignore (Riscv.Cpu.run ~max_steps:(200 * n * 64) cpu);
  let trace = Power.Synth.synthesize ~rng:scope_rng Power.Synth.default (Riscv.Trace.events r) in
  let trace =
    match fault with
    | Some f -> Power.Fault.apply ~rng:(Mathkit.Prng.split scope_rng) f trace
    | None -> trace
  in
  (trace, Array.map (fun plane -> Array.sub plane 0 n) (SP.read_poly mem layout ~n:(n + 1) ~k:1))

let test_device_run_is_the_staged_composition () =
  let bits a = Array.map Int64.bits_of_float a in
  let slow_div = function Riscv.Inst.K_div -> 21 | k -> Riscv.Cpu.cycles_of_class k in
  let fault = Power.Fault.of_intensity 0.5 in
  let cases =
    [
      ("v32", Riscv.Sampler_prog.Vulnerable, None, None, false);
      ("v36", Riscv.Sampler_prog.Branchless, None, None, false);
      ("shuffled", Riscv.Sampler_prog.Shuffled, None, None, true);
      ("cdt", Riscv.Sampler_prog.Cdt_table, None, None, false);
      ("cycle model", Riscv.Sampler_prog.Vulnerable, Some slow_div, None, false);
      ("faulted", Riscv.Sampler_prog.Vulnerable, None, Some fault, false);
    ]
  in
  let devices =
    List.map
      (fun n ->
        ( n,
          List.map
            (fun (name, variant, cycle_model, fault, shuffled) ->
              (name, variant, cycle_model, fault, shuffled, Reveal.Device.create ~variant ?cycle_model ?fault ~n ()))
            cases ))
      [ 64; 256 ]
  in
  let seed = ref 0 in
  for pass = 1 to 2 do
    List.iter
      (fun (n, devs) ->
        List.iter
          (fun (name, variant, cycle_model, fault, shuffled, device) ->
            incr seed;
            let label what = Printf.sprintf "pass %d, n = %d, %s: %s" pass n name what in
            let scope = Mathkit.Prng.create ~seed:(Int64.of_int !seed) () in
            let sampler = Mathkit.Prng.create ~seed:(Int64.of_int (1000 + !seed)) () in
            let draws, _ =
              Riscv.Sampler_prog.draws_of_gaussian (Mathkit.Prng.copy sampler) Mathkit.Gaussian.seal_default ~count:n
            in
            let perm =
              if shuffled then begin
                let p = Array.init n Fun.id in
                Mathkit.Prng.shuffle (Mathkit.Prng.create ~seed:(Int64.of_int (2000 + !seed)) ()) p;
                Some p
              end
              else None
            in
            let trace, poly = staged ?cycle_model ?fault ~variant ~n ~perm ~scope_rng:(Mathkit.Prng.copy scope) draws in
            let run =
              match perm with
              | Some perm -> Reveal.Device.run_shuffled device ~scope_rng:scope ~sampler_rng:sampler ~perm
              | None -> Reveal.Device.run device ~scope_rng:scope ~draws
            in
            let t = run.Reveal.Device.trace in
            Alcotest.(check (array int64)) (label "samples") (bits trace.Power.Ptrace.samples) (bits t.Power.Ptrace.samples);
            Alcotest.(check (array int)) (label "noises") (Array.map fst draws) run.Reveal.Device.noises;
            Alcotest.(check (array (array int))) (label "poly") poly run.Reveal.Device.poly)
          devs)
      devices
  done

(* --- Campaign ------------------------------------------------------------- *)

let test_campaign_sign_recovery_perfect () =
  let e = Lazy.force env in
  let s = Reveal.Experiment.env_stats e in
  Alcotest.(check int) "100% sign recovery" s.Reveal.Campaign.sign_total s.Reveal.Campaign.sign_correct

let test_campaign_zero_class_exact () =
  let e = Lazy.force env in
  let s = Reveal.Experiment.env_stats e in
  let c = s.Reveal.Campaign.confusion in
  Alcotest.(check (float 1e-9)) "zeros never misread" 100.0
    (Sca.Confusion.column_percent c ~actual:0 ~predicted:0)

let test_campaign_negatives_beat_positives () =
  (* the paper's headline asymmetry: vulnerability 3 makes negative
     coefficients far more recoverable *)
  let e = Lazy.force env in
  let c = (Reveal.Experiment.env_stats e).Reveal.Campaign.confusion in
  let mean_diag range =
    let vals = List.filter_map (fun v ->
        let p = Sca.Confusion.column_percent c ~actual:v ~predicted:v in
        if Sca.Confusion.count c ~actual:v ~predicted:v >= 0 then Some p else None)
        range
    in
    List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
  in
  let neg = mean_diag [ -1; -2; -3; -4 ] and pos = mean_diag [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) (Printf.sprintf "neg %.1f > pos %.1f" neg pos) true (neg > pos)

let test_campaign_value_accuracy_reasonable () =
  let e = Lazy.force env in
  let s = Reveal.Experiment.env_stats e in
  let acc = float_of_int s.Reveal.Campaign.value_correct /. float_of_int s.Reveal.Campaign.value_total in
  Alcotest.(check bool) "above 35%" true (acc > 0.35);
  Alcotest.(check bool) "not perfect (noise present)" true (acc < 0.95)

let test_campaign_posteriors_are_distributions () =
  let e = Lazy.force env in
  let results = snd (let s = Reveal.Experiment.env_stats e in (s, ())) in
  ignore results;
  let e2 = Lazy.force env in
  let prof = Reveal.Experiment.env_profile e2 in
  let g = rng () in
  let device = Reveal.Device.create ~n:64 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
  let results = Reveal.Campaign.attack_trace prof run in
  Array.iter
    (fun r ->
      let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 r.Reveal.Campaign.posterior_all in
      Alcotest.(check bool) "sums to 1" true (Float.abs (total -. 1.0) < 1e-6);
      Array.iter (fun (_, p) -> Alcotest.(check bool) "non-negative" true (p >= 0.0)) r.Reveal.Campaign.posterior_all)
    results

let test_campaign_signs_only_matches_verdicts () =
  let e = Lazy.force env in
  let prof = Reveal.Experiment.env_profile e in
  let g = rng () in
  let device = Reveal.Device.create ~n:64 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
  Array.iter
    (fun r ->
      Alcotest.(check int) "sign correct" (compare r.Reveal.Campaign.actual 0)
        r.Reveal.Campaign.verdict.Sca.Attack.sign)
    (Reveal.Campaign.attack_trace prof run)

(* A trace cut between its last two bursts lost the trailing dummy's
   delimiting burst.  Resilient segmentation restores the count by
   planting a burst (for this trace between windows 28 and 29, not at
   the tail), and the gate must not vouch for either window next to
   it: both stay Resynced — a length outlier is not allowed to
   overwrite that flag with Suspect — and neither grades Confident. *)
let test_campaign_truncated_trace_resynced () =
  let prof = Reveal.Experiment.env_profile (Lazy.force env) in
  let g = rng () in
  let device = Reveal.Device.create ~n:64 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
  let samples = run.Reveal.Device.trace.Power.Ptrace.samples in
  let bursts = Sca.Segment.burst_regions_fv prof.Reveal.Campaign.segment (Mathkit.Fvec.of_array samples) in
  Alcotest.(check int) "n + 1 bursts (dummy included)" 65 (Array.length bursts);
  let cut = (bursts.(63).Sca.Segment.stop + bursts.(64).Sca.Segment.start) / 2 in
  let truncated =
    { run with Reveal.Device.trace = { run.Reveal.Device.trace with Power.Ptrace.samples = Array.sub samples 0 cut } }
  in
  let results = Reveal.Campaign.attack_trace prof truncated in
  Alcotest.(check int) "every coefficient attacked" 64 (Array.length results);
  match
    Reveal.Pipeline.run_segmenter Reveal.Pipeline.resilient_segmenter prof ~count:64
      (Mathkit.Fvec.of_array (Array.sub samples 0 cut))
  with
  | Error e -> Alcotest.failf "resilient segmentation failed: %s" (Sca.Segment.error_to_string e)
  | Ok seg ->
      List.iter
        (fun i ->
          Alcotest.(check bool) (Printf.sprintf "window %d resynced" i) true
            (seg.Reveal.Pipeline.quality.(i) = Sca.Segment.Resynced);
          Alcotest.(check bool) (Printf.sprintf "window %d not confident" i) true
            (results.(i).Reveal.Campaign.grade <> Reveal.Campaign.Confident))
        [ 28; 29 ]

(* Honest captures never need repair, whatever the firmware: on clean
   device traces of every sampler variant, [windows_fv] finds exactly
   n + 1 windows (the dummy included), the resilient segmenter returns
   the first n of them, and it flags no window [Resynced]. *)
let test_clean_traces_need_no_repair () =
  let n = 64 in
  List.iter
    (fun (name, variant) ->
      let device = Reveal.Device.create ~variant ~n () in
      let prof = Reveal.Campaign.profile ~per_value:24 device (Mathkit.Prng.create ~seed:2024L ()) in
      for t = 1 to 20 do
        let g = Mathkit.Prng.create ~seed:(Int64.of_int t) () in
        let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
        let samples = Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples in
        let label what = Printf.sprintf "%s trace %d: %s" name t what in
        let wins = Sca.Segment.windows_fv prof.Reveal.Campaign.segment samples in
        Alcotest.(check int) (label "n + 1 windows") (n + 1) (Array.length wins);
        match Reveal.Pipeline.run_segmenter Reveal.Pipeline.resilient_segmenter prof ~count:n samples with
        | Error e -> Alcotest.fail (label (Sca.Segment.error_to_string e))
        | Ok seg ->
            let expected =
              Sca.Segment.views samples (Array.sub wins 0 n) ~length:prof.Reveal.Campaign.window_length
            in
            Alcotest.(check bool) (label "first n windows") true
              (Array.for_all2
                 (fun a b -> Mathkit.Fvec.to_array a = Mathkit.Fvec.to_array b)
                 expected seg.Reveal.Pipeline.vectors);
            Alcotest.(check bool) (label "nothing resynced") true
              (Array.for_all (fun q -> q <> Sca.Segment.Resynced) seg.Reveal.Pipeline.quality)
      done)
    [
      ("v32", Riscv.Sampler_prog.Vulnerable);
      ("v36", Riscv.Sampler_prog.Branchless);
      ("shuffled", Riscv.Sampler_prog.Shuffled);
      ("cdt", Riscv.Sampler_prog.Cdt_table);
    ]

(* --- Experiments -------------------------------------------------------------- *)

let test_fig3_structure () =
  let f = Reveal.Experiment.fig3 small_config in
  Alcotest.(check int) "four peaks (3 coeffs + dummy)" 4 (Array.length f.Reveal.Experiment.bursts);
  Alcotest.(check bool) "sub-traces differ (vulnerability 1)" true
    (f.Reveal.Experiment.sub_zero <> f.Reveal.Experiment.sub_pos
    && f.Reveal.Experiment.sub_pos <> f.Reveal.Experiment.sub_neg)

let test_table2_zero_secret_is_certain () =
  let rows = Reveal.Experiment.table2 (Lazy.force env) in
  match List.find_opt (fun r -> r.Reveal.Experiment.secret = 0) rows with
  | None -> Alcotest.fail "no zero-secret row"
  | Some r ->
      Alcotest.(check bool) "variance ~ 0" true (r.Reveal.Experiment.variance < 1e-6);
      Alcotest.(check bool) "centered ~ 0" true (Float.abs r.Reveal.Experiment.centered < 1e-6)

let test_table3_hints_reduce_hardness () =
  let r = Reveal.Experiment.table3 (Lazy.force env) in
  let p = r.Reveal.Experiment.paper_mode and c = r.Reveal.Experiment.calibrated in
  Alcotest.(check bool) "paper mode is a complete break" true
    (p.Reveal.Sink.bikz_with_hints < 40.0);
  Alcotest.(check bool) "calibrated still a large reduction" true
    (c.Reveal.Sink.bikz_with_hints < c.Reveal.Sink.bikz_no_hints -. 50.0);
  Alcotest.(check bool) "calibrated keeps some hardness" true
    (c.Reveal.Sink.bikz_with_hints > p.Reveal.Sink.bikz_with_hints)

let test_table4_signs_insufficient () =
  let e = Lazy.force env in
  let t3 = Reveal.Experiment.table3 e and t4 = Reveal.Experiment.table4 e in
  let sign_bikz = t4.Reveal.Experiment.base.Reveal.Sink.bikz_with_hints in
  (* the paper's conclusion: signs alone leave a hard instance *)
  Alcotest.(check bool) "well above complete break" true (sign_bikz > 150.0);
  Alcotest.(check bool) "weaker than the full attack" true
    (sign_bikz > t3.Reveal.Experiment.paper_mode.Reveal.Sink.bikz_with_hints);
  Alcotest.(check bool) "guess helps a little" true
    (t4.Reveal.Experiment.bikz_with_guess <= sign_bikz);
  Alcotest.(check bool) "guess success probability sane" true
    (t4.Reveal.Experiment.guess_success_probability > 0.1
    && t4.Reveal.Experiment.guess_success_probability < 0.5)

let test_recovery_sanity_and_counts () =
  let r = Reveal.Experiment.recovery { small_config with Reveal.Experiment.device_n = 64 } in
  Alcotest.(check int) "2n coefficients attacked" 128 r.Reveal.Experiment.coefficients_total;
  Alcotest.(check bool) "a useful fraction exact" true (r.Reveal.Experiment.coefficients_exact > 128 / 4);
  Alcotest.(check bool) "residual below no-hint hardness" true (r.Reveal.Experiment.residual_bikz < 347.0)

let test_defense_report_shape () =
  let rows = Reveal.Experiment.defenses small_config in
  Alcotest.(check int) "four variants" 4 (List.length rows);
  let find name = List.find (fun r -> r.Reveal.Experiment.variant = name) rows in
  let vuln = find "SEAL v3.2 (vulnerable)" in
  let branchless = find "v3.6-style branchless" in
  let shuffled = find "shuffled sampling order" in
  Alcotest.(check (float 1e-9)) "v3.2 sign 100%" 100.0 vuln.Reveal.Experiment.sign_accuracy;
  Alcotest.(check bool) "branchless degrades sign" true
    (branchless.Reveal.Experiment.sign_accuracy < vuln.Reveal.Experiment.sign_accuracy);
  Alcotest.(check bool) "shuffling restores full hardness" true
    (shuffled.Reveal.Experiment.bikz_after_attack > vuln.Reveal.Experiment.bikz_after_attack);
  let cdt = find "constant-time CDT sampler" in
  Alcotest.(check bool) "CDT leaks less than v3.2" true
    (cdt.Reveal.Experiment.value_accuracy < vuln.Reveal.Experiment.value_accuracy)

let test_ablation_noise_monotone () =
  let rows = Reveal.Experiment.ablate_noise small_config in
  let accs = List.map (fun (r : Reveal.Experiment.ablation_row) -> r.value_accuracy) rows in
  (* first (least noise) should beat last (most noise) clearly *)
  match (accs, List.rev accs) with
  | best :: _, worst :: _ -> Alcotest.(check bool) "more noise, worse attack" true (best > worst +. 5.0)
  | _ -> Alcotest.fail "unexpected shape"

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("device run deterministic", test_device_run_deterministic);
      ("device poly matches Fig.2 assignment", test_device_poly_matches_assignment);
      ("device trailing dummy window", test_device_trailing_dummy_windows);
      ("device draw queue checked", test_device_draw_queue_length_checked);
      ("device shuffled placement", test_device_shuffled_places_values);
      ("device variants: same output, different trace", test_device_variant_traces_differ);
      ("device profiling draw = one clipped draw", test_profiling_draw_is_one_clipped_draw);
      ("device run = the staged composition, bit for bit", test_device_run_is_the_staged_composition);
      ("campaign 100% sign recovery", test_campaign_sign_recovery_perfect);
      ("campaign zero class exact", test_campaign_zero_class_exact);
      ("campaign negatives beat positives", test_campaign_negatives_beat_positives);
      ("campaign value accuracy in range", test_campaign_value_accuracy_reasonable);
      ("campaign posteriors are distributions", test_campaign_posteriors_are_distributions);
      ("campaign signs-only classifier", test_campaign_signs_only_matches_verdicts);
      ("campaign truncated trace: resynced, never confident", test_campaign_truncated_trace_resynced);
      ("segment clean traces: every variant, no repair", test_clean_traces_need_no_repair);
      ("fig3 structure", test_fig3_structure);
      ("table2 zero secret certain", test_table2_zero_secret_is_certain);
      ("table3 hints reduce hardness", test_table3_hints_reduce_hardness);
      ("table4 signs insufficient", test_table4_signs_insufficient);
      ("recovery sanity and counts", test_recovery_sanity_and_counts);
      ("defense report shape", test_defense_report_shape);
      ("ablation: noise monotone", test_ablation_noise_monotone);
    ]

(* --- profile persistence --------------------------------------------------- *)

let test_profile_save_load_roundtrip () =
  let e = Lazy.force env in
  let prof = Reveal.Experiment.env_profile e in
  let path = Filename.temp_file "reveal_profile" ".bin" in
  Reveal.Campaign.save_profile path prof;
  let prof' = Reveal.Campaign.load_profile path in
  Sys.remove path;
  Alcotest.(check int) "window length" prof.Reveal.Campaign.window_length prof'.Reveal.Campaign.window_length;
  Alcotest.(check (array int)) "values" prof.Reveal.Campaign.values prof'.Reveal.Campaign.values;
  (* the reloaded profile must classify identically *)
  let g = rng () in
  let device = Reveal.Device.create ~n:64 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
  let a = Reveal.Campaign.attack_trace prof run and b = Reveal.Campaign.attack_trace prof' run in
  Array.iteri
    (fun i ra ->
      Alcotest.(check int) "same verdicts" ra.Reveal.Campaign.verdict.Sca.Attack.value
        b.(i).Reveal.Campaign.verdict.Sca.Attack.value)
    a

let test_profile_load_rejects_garbage () =
  let path = Filename.temp_file "reveal_profile" ".bin" in
  let oc = open_out path in
  output_string oc "definitely not a profile cache, but long enough to read";
  close_out oc;
  (try
     ignore (Reveal.Campaign.load_profile path);
     Sys.remove path;
     Alcotest.fail "expected rejection"
   with Traceio.Error.Corrupt _ -> Sys.remove path)

let persistence_cases =
  [
    ("profile save/load roundtrip", test_profile_save_load_roundtrip);
    ("profile load rejects garbage", test_profile_load_rejects_garbage);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) persistence_cases

(* --- parallel campaign determinism ----------------------------------------- *)

let test_parallel_profiling_deterministic () =
  let windows domains =
    let g = Mathkit.Prng.create ~seed:808L () in
    let device = Reveal.Device.create ~n:64 () in
    let _, len, classes = Reveal.Campaign.profiling_windows ~per_value:16 ~domains device g in
    (len, classes)
  in
  let l1, c1 = windows 1 and l3, c3 = windows 3 in
  Alcotest.(check int) "same window length" l1 l3;
  List.iter2
    (fun (v1, w1) (v3, w3) ->
      Alcotest.(check int) "same label" v1 v3;
      Alcotest.(check int) "same window count" (Array.length w1) (Array.length w3))
    c1 c3;
  (* window multisets identical: compare sums *)
  let checksum classes =
    List.fold_left
      (fun acc (_, ws) -> Array.fold_left (fun acc w -> acc +. Array.fold_left ( +. ) 0.0 w) acc ws)
      0.0 classes
  in
  Alcotest.(check (float 1e-6)) "same content" (checksum c1) (checksum c3)

let test_parallel_map_basic () =
  let xs = Array.init 100 (fun i -> i) in
  let doubled = Mathkit.Parallel.map_array ~domains:4 (fun x -> 2 * x) xs in
  Alcotest.(check (array int)) "order preserved" (Array.map (fun x -> 2 * x) xs) doubled;
  Alcotest.(check (array int)) "empty" [||] (Mathkit.Parallel.map_array ~domains:4 (fun x -> x) [||])

let test_parallel_map_propagates_exception () =
  Alcotest.check_raises "worker failure surfaces" (Failure "boom") (fun () ->
      ignore (Mathkit.Parallel.map_array ~domains:3 (fun x -> if x = 7 then failwith "boom" else x) (Array.init 20 (fun i -> i))))

let parallel_cases =
  [
    ("parallel profiling deterministic", test_parallel_profiling_deterministic);
    ("parallel map basics", test_parallel_map_basic);
    ("parallel map propagates exceptions", test_parallel_map_propagates_exception);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) parallel_cases

(* --- fault tolerance ----------------------------------------------------- *)

(* Satellite regression: a no-op fault model is bit-identical to the
   fault-free device — same verdicts — and the graded hints give the
   ungated bikz. *)
let test_fault_zero_consistency () =
  let zc = Reveal.Experiment.fault_zero_consistency small_config in
  Alcotest.(check bool) "attacked something" true (zc.Reveal.Experiment.coefficients > 0);
  Alcotest.(check int) "identical verdicts" 0 zc.Reveal.Experiment.verdict_mismatches;
  Alcotest.(check int) "nothing graded below Tentative" 0 zc.Reveal.Experiment.grade_downgrades;
  Alcotest.(check (float 1e-9))
    "identical bikz" zc.Reveal.Experiment.bikz_ungated zc.Reveal.Experiment.bikz_graded

let test_fault_sweep_invariants () =
  let rows = Reveal.Experiment.fault_sweep ~intensities:[| 0.0; 0.6; 1.2 |] small_config in
  Alcotest.(check int) "one row per intensity" 3 (List.length rows);
  (match Reveal.Experiment.fault_sweep_check rows with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "sweep invariants violated:\n%s" msg);
  let clean = List.hd rows in
  Alcotest.(check (float 1e-9)) "clean recovery is total" 1.0 clean.Reveal.Experiment.recovery_rate;
  Alcotest.(check int) "clean run needs no retries" 0 clean.Reveal.Experiment.retried;
  Alcotest.(check int) "clean run loses nothing" 0 clean.Reveal.Experiment.unrecoverable

let test_fault_sweep_deterministic () =
  let sweep () = Reveal.Experiment.fault_sweep ~intensities:[| 0.8 |] small_config in
  Alcotest.(check bool) "same seed, same rows" true (sweep () = sweep ())

let fault_cases =
  [
    ("fault: zero intensity = clean pipeline", test_fault_zero_consistency);
    ("fault: sweep invariants", test_fault_sweep_invariants);
    ("fault: sweep deterministic", test_fault_sweep_deterministic);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) fault_cases
