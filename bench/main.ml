(* Benchmark & reproduction harness.

   With no argument (or `all`): regenerate every artefact of the
   paper's evaluation registered in [Reveal.Experiment.artefacts] at
   the default (scaled-down) campaign sizes, plus the ctcheck lint
   table.  Any registry name selects one artefact; `traceio`, `ctcheck`
   and `obs` are bench-only measurements, and `perf` times one
   micro-benchmark per table/figure kernel.  --full switches to the
   paper's campaign sizes (220k profiling windows, 25k attacked
   coefficients) — minutes instead of seconds. *)

let out_dir = "bench_out"

(* Every human-readable timing the harness prints goes through here. *)
let now () =
  (* srclint: allow nondet-source bench timings are real wall-clock measurements by design *)
  Unix.gettimeofday ()

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let save_csv name samples =
  ensure_out_dir ();
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc "index,power\n";
  Array.iteri (fun i s -> output_string oc (Printf.sprintf "%d,%.6f\n" i s)) samples;
  close_out oc;
  Printf.printf "(csv written to %s)\n" path

let config () =
  if Array.exists (fun a -> a = "--full") Sys.argv then begin
    print_endline "campaign: FULL (paper sizes: ~220k profiling windows, 25 x 1024 attacked coefficients)";
    Reveal.Experiment.paper_scale
  end
  else begin
    print_endline
      "campaign: scaled-down default (n=256, 400 windows/value, 20 traces); --full for paper sizes";
    Reveal.Experiment.default
  end

let section title = Printf.printf "\n===== %s =====\n%!" title

(* The bench-only extra of Fig. 3: its traces as CSV for plotting. *)
let save_fig3_csvs cfg =
  let f = Reveal.Experiment.fig3 cfg in
  save_csv "fig3a_full_trace.csv" f.Reveal.Experiment.full_portion;
  save_csv "fig3b_zero.csv" f.Reveal.Experiment.sub_zero;
  save_csv "fig3b_pos.csv" f.Reveal.Experiment.sub_pos;
  save_csv "fig3b_neg.csv" f.Reveal.Experiment.sub_neg

(* Replay decode has two halves, the frame CRC-32 and the payload
   decode.  Both are timed over a few n = 1024 records, so a change to
   either shows here without a traced campaign run. *)
let run_traceio () =
  section "traceio: archive write, CRC-32 and next decode throughput";
  ensure_out_dir ();
  let path = Filename.concat out_dir "bench_campaign.rvt" in
  let traces = 4 and n = 1024 in
  let device = Reveal.Device.create ~n () in
  let g = Mathkit.Prng.create ~seed:5L () in
  let t0 = now () in
  Reveal.Device.record device ~path ~seed:5L ~traces ~scope_rng:g ~sampler_rng:g;
  let t_write = now () -. t0 in
  let size = Traceio.Archive.file_size path in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      let t0 = now () in
      f ();
      best := Float.min !best (now () -. t0)
    done;
    !best
  in
  let t_crc = best_of 5 (fun () -> ignore (Sys.opaque_identity (Traceio.Crc32.digest bytes))) in
  let samples = ref 0 in
  let t_decode =
    best_of 5 (fun () ->
        samples := 0;
        Traceio.Archive.with_reader path (fun r ->
            let rec loop () =
              match Traceio.Archive.next r with
              | None -> ()
              | Some rec_ ->
                  samples := !samples + Mathkit.Fvec.length rec_.Traceio.Archive.samples;
                  loop ()
            in
            loop ()))
  in
  let mb x = float_of_int x /. 1e6 in
  Printf.printf "recorded %d traces (n = %d): %d samples, %.2f MB on disk (format v%d)\n" traces n !samples (mb size)
    Traceio.Archive.version;
  Printf.printf "  capture+encode  %.3f s (%.1f MB/s)\n" t_write (mb size /. t_write);
  Printf.printf "  crc-32          %.1f MB/s (whole file, best of 5)\n" (mb size /. t_crc);
  Printf.printf "  next            %.1f MB/s (read + crc-32 + decode, best of 5; crc-32 is %.0f %%)\n"
    (mb size /. t_decode) (100.0 *. t_crc /. t_decode)

let run_ctcheck () =
  section "ctcheck: constant-time lint of the four firmware variants";
  List.iter
    (fun (name, variant) ->
      let t0 = now () in
      let r = Ctcheck.Lint.analyze_variant ~n:64 ~k:1 variant in
      let dt = now () -. t0 in
      let viol = List.length (Ctcheck.Lint.violations r) in
      let confirmed = List.length (List.filter Ctcheck.Finding.is_confirmed r.Ctcheck.Lint.findings) in
      Printf.printf "  %-9s %d findings (%d violations, %d/%d oracle-confirmed), drift %s, %.3f s\n" name
        (List.length r.Ctcheck.Lint.findings) viol confirmed
        (List.length r.Ctcheck.Lint.findings)
        (match Ctcheck.Lint.check r with [] -> "none" | l -> string_of_int (List.length l) ^ " line(s)")
        dt)
    [
      ("v32", Riscv.Sampler_prog.Vulnerable);
      ("v36", Riscv.Sampler_prog.Branchless);
      ("shuffled", Riscv.Sampler_prog.Shuffled);
      ("cdt", Riscv.Sampler_prog.Cdt_table);
    ]

let run_obs () =
  section "obs: per-stage pipeline timings and instrumentation overhead";
  ensure_out_dir ();
  let archive = Filename.concat out_dir "obs_campaign.rvt" in
  let traces = 6 and n = 64 in
  let device = Reveal.Device.create ~n () in
  let g = Mathkit.Prng.create ~seed:7L () in
  Reveal.Device.record device ~path:archive ~seed:7L ~traces ~scope_rng:g ~sampler_rng:g;
  let prof = Reveal.Campaign.profile ~per_value:60 device (Mathkit.Prng.create ~seed:7L ()) in
  (* instrumented replay: every stage span and metric into a JSONL trace *)
  let trace_path = Filename.concat out_dir "obs_run.jsonl" in
  let obs = Obs.Ctx.create ~sink:(Obs.Sink.file trace_path) () in
  ignore (Reveal.Campaign.attack_archive ~obs prof archive);
  Obs.Ctx.close obs;
  Printf.printf "(obs trace written to %s)\n" trace_path;
  (match Obs.Summary.load trace_path with
  | Error e -> Printf.printf "WARNING: unreadable obs trace: %s\n" e
  | Ok s ->
      print_string (Obs.Summary.render s);
      let json_path = Filename.concat out_dir "obs_stages.json" in
      let oc = open_out json_path in
      output_string oc (Obs.Json.to_string (Obs.Summary.to_json s));
      output_string oc "\n";
      close_out oc;
      Printf.printf "(per-stage timings written to %s)\n" json_path);
  (* the disabled context must cost nothing: replay the same campaign
     with and without instrumentation and report the wall-clock delta *)
  let time f =
    let t0 = now () in
    ignore (f ());
    now () -. t0
  in
  let replay obs () = Reveal.Campaign.attack_archive ?obs prof archive in
  ignore (time (replay None));
  (* warm-up *)
  let t_plain = time (replay None) in
  let sink, _ = Obs.Sink.memory () in
  let obs2 = Obs.Ctx.create ~sink () in
  let t_obs = time (replay (Some obs2)) in
  Obs.Ctx.close obs2;
  Printf.printf "replay wall-clock: disabled %.3f s, instrumented %.3f s (%+.1f%% when enabled)\n" t_plain t_obs
    (100.0 *. (t_obs -. t_plain) /. t_plain)

(* --- micro-benchmarks: one per table/figure kernel ------------------------ *)

(* The firmware and draw queue of one honest n-coefficient run of the
   default sampler (the queue ends in the trailing dummy's draw). *)
let sampler_inputs ~n rng =
  let draws, _ = Riscv.Sampler_prog.draws_of_gaussian rng Mathkit.Gaussian.seal_default ~count:n in
  (Riscv.Sampler_prog.build ~n:(n + 1) ~k:1 (), Array.append draws [| (0, 0) |])

(* That run in [mem], staged as Device.run stages it, each retired
   instruction handed to [tracer]. *)
let run_sampler mem (program, draws) ~tracer =
  let layout = Riscv.Sampler_prog.default_layout in
  Riscv.Memory.clear mem;
  Riscv.Memory.load_program mem 0 program.Riscv.Asm.words;
  Riscv.Sampler_prog.stage_moduli mem layout [| 132120577 |];
  Riscv.Sampler_prog.install_noise_port mem ~draws;
  ignore (Riscv.Cpu.run ~max_steps:(200 * 64 * Array.length draws) (Riscv.Cpu.create ~tracer mem))

let perf_tests () =
  let rng = Mathkit.Prng.create ~seed:1L () in
  (* fig3 kernel: simulate + synthesise one 3-coefficient trace *)
  let device3 = Reveal.Device.create ~n:3 () in
  let fig3_kernel =
    ( "fig3: simulate+synthesise 3-coeff trace",
      fun () -> ignore (Reveal.Device.run device3 ~scope_rng:rng ~draws:[| (0, 1); (4, 0); (-5, 2) |]) )
  in
  (* table1 kernel: classify one trace *)
  let small = { Reveal.Experiment.default with Reveal.Experiment.device_n = 64; per_value = 60; attack_traces = 1 } in
  let e = Reveal.Experiment.prepare small in
  let prof = Reveal.Experiment.env_profile e in
  let device = Reveal.Device.create ~n:64 () in
  let run = Reveal.Device.run_gaussian device ~scope_rng:rng ~sampler_rng:rng in
  let table1_kernel =
    ("table1: segment+classify one 64-coeff trace", fun () -> ignore (Reveal.Campaign.attack_trace prof run))
  in
  (* the per-window scoring work exactly as the grader performs it,
     and the same work over a whole replayed trace: Fvec views of the
     trace buffer, one reused scoring scratch *)
  let attack = prof.Reveal.Campaign.attack in
  let attack_scratch = Sca.Attack.make_scratch attack in
  let samples_fv = Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples in
  let window_fv =
    let wins = Sca.Segment.windows_fv prof.Reveal.Campaign.segment samples_fv in
    (Sca.Segment.views samples_fv wins ~length:prof.Reveal.Campaign.window_length).(0)
  in
  let scoring_fvec_kernel =
    ( "numeric: template scoring, fvec+scratch",
      fun () -> ignore (Sca.Attack.grade_fv attack attack_scratch window_fv) )
  in
  let replay_fvec_kernel =
    ( "numeric: replay attack, fvec views+scratch",
      fun () ->
        let wins = Sca.Segment.windows_fv prof.Reveal.Campaign.segment samples_fv in
        Array.iter
          (fun w -> ignore (Sca.Attack.grade_fv attack attack_scratch w))
          (Sca.Segment.views samples_fv wins ~length:prof.Reveal.Campaign.window_length) )
  in
  (* the scope model at the default ring size: synthesis of one
     256-coefficient trace, and the fault pass over it at the mid
     intensity the faulted campaign runs *)
  let sampler256 = sampler_inputs ~n:256 rng in
  let ram = Riscv.Memory.create Riscv.Sampler_prog.default_layout.Riscv.Sampler_prog.ram_size in
  let events256 =
    let recorder = Riscv.Trace.recorder () in
    run_sampler ram sampler256 ~tracer:(Riscv.Trace.record recorder);
    Riscv.Trace.events recorder
  in
  (* the simulator as Device.run drives it: one run, every instruction
     fed to the synthesis accumulator as it retires (noise-free finish) *)
  let sim_kernel =
    ( "riscv: simulate 256-coeff sampler run",
      fun () ->
        let acc = Power.Synth.accumulator Power.Synth.quiet in
        run_sampler ram sampler256 ~tracer:(Power.Synth.feed acc);
        ignore (Power.Synth.finish acc) )
  in
  let synth_kernel =
    ( "power: synthesize 256-coeff trace",
      fun () -> ignore (Power.Synth.synthesize ~rng Power.Synth.default events256) )
  in
  let trace256 = Power.Synth.synthesize ~rng Power.Synth.default events256 in
  let fault_kernel =
    ( "power: fault pass, 256-coeff trace at intensity 0.5",
      fun () -> ignore (Power.Fault.apply ~rng (Power.Fault.of_intensity 0.5) trace256) )
  in
  (* resilient segmentation of that trace faulted once, at the absolute
     threshold profiling pins (calibrated on the clean trace) *)
  let segment_kernel =
    let clean = Mathkit.Fvec.of_array trace256.Power.Ptrace.samples in
    let segment =
      { Sca.Segment.default with Sca.Segment.threshold = Sca.Segment.Absolute (Sca.Segment.auto_threshold_fv Sca.Segment.default clean) }
    in
    let faulted =
      let g = Mathkit.Prng.create ~seed:5L () in
      Mathkit.Fvec.of_array (Power.Fault.apply ~rng:g (Power.Fault.of_intensity 0.5) trace256).Power.Ptrace.samples
    in
    ("sca: segment 256-coeff faulted trace", fun () -> ignore (Sca.Segment.segment_fv segment ~expected:257 faulted))
  in
  (* archive profiling on one domain: each of two n = 1024 records
     pulled, checked, decoded, segmented at the recorded threshold and
     its windows copied out, then the classes formed *)
  let profiling_windows_kernel =
    let path = Filename.temp_file "reveal_bench_profiling" ".rvt" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    Reveal.Profiling.record_profiling ~per_value:70 (Reveal.Device.create ~n:1024 ()) (Mathkit.Prng.create ~seed:11L ())
      ~path;
    ( "profiling: windows of a 2-record 1024-coeff archive",
      fun () -> ignore (Reveal.Profiling.profiling_windows_of_archive ~domains:1 path) )
  in
  (* the chain a live campaign runs per capture: simulation, synthesis
     and the fault pass at intensity 0.5, written into the domain's
     acquisition buffers *)
  let faulted256 = Reveal.Device.create ~fault:(Power.Fault.of_intensity 0.5) ~n:256 () in
  let draws256 = Reveal.Device.gaussian_draws faulted256 rng in
  let acquire_kernel =
    ( "device: acquire 256-coeff faulted trace",
      fun () -> ignore (Reveal.Device.acquire faulted256 ~scope_rng:rng ~draws:draws256) )
  in
  (* what replay hands a worker per record: the CRC-32 of one pulled
     n = 1024 frame, then its decode into the domain's reused samples
     plane (reading the frame off disk is not part of it) *)
  let decode_kernel =
    let path = Filename.temp_file "reveal_bench_decode" ".rvt" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    let g = Mathkit.Prng.create ~seed:9L () in
    Reveal.Device.record (Reveal.Device.create ~n:1024 ()) ~path ~seed:9L ~traces:1 ~scope_rng:g ~sampler_rng:g;
    let frame = Traceio.Archive.with_reader path (fun r -> Option.get (Traceio.Archive.pull r)) in
    ( "traceio: verify+decode 1024-coeff record into a reused plane",
      fun () -> ignore (Traceio.Archive.decode_into frame ~into:Reveal.Device.samples_slot) )
  in
  (* table3 kernel: integrate 1024 hints and re-estimate beta *)
  let table3_kernel =
    ( "table3: 1024 DBDD hints + beta search",
      fun () ->
        let d = Hints.Dbdd.create Hints.Lwe.seal_128_1024 in
        for i = 0 to 1023 do
          if i mod 3 = 0 then Hints.Dbdd.perfect_hint d i
          else Hints.Dbdd.posterior_hint d i ~posterior_variance:0.5
        done;
        ignore (Hints.Dbdd.estimate_bikz d) )
  in
  (* table4 kernel: sign hints + beta search *)
  let table4_kernel =
    ( "table4: sign hints + beta search",
      fun () ->
        let d = Hints.Dbdd.create Hints.Lwe.seal_128_1024 in
        let hv = 3.2 *. 3.2 *. (1.0 -. (2.0 /. Float.pi)) in
        for i = 0 to 1023 do
          if i mod 8 = 0 then Hints.Dbdd.perfect_hint d i else Hints.Dbdd.posterior_hint d i ~posterior_variance:hv
        done;
        ignore (Hints.Dbdd.estimate_bikz d) )
  in
  (* substrate kernels *)
  let md = Mathkit.Modular.modulus 132120577 in
  let plan = Mathkit.Ntt.plan md 1024 in
  let a = Mathkit.Poly.uniform rng md 1024 and b = Mathkit.Poly.uniform rng md 1024 in
  let ntt_kernel =
    ("substrate: NTT multiply (n=1024)", fun () -> ignore (Mathkit.Ntt.multiply plan a b))
  in
  let ctx = Bfv.Rq.context Bfv.Params.seal_128_1024 in
  let sk = Bfv.Keygen.secret_key rng ctx in
  let pk = Bfv.Keygen.public_key rng ctx sk in
  let msg = Bfv.Keys.plaintext_of_coeffs Bfv.Params.seal_128_1024 (Array.make 1024 7) in
  let bfv_kernel =
    ("substrate: BFV encrypt (n=1024, v3.2 sampler)", fun () -> ignore (Bfv.Encryptor.encrypt rng ctx pk msg))
  in
  let v32 = Riscv.Sampler_prog.build ~variant:Riscv.Sampler_prog.Vulnerable ~n:64 ~k:1 () in
  let ctcheck_kernel =
    ("ctcheck: static lint of v3.2 firmware (n=64)", fun () -> ignore (Ctcheck.Lint.analyze_program v32))
  in
  let lll_kernel =
    ( "substrate: LLL on dim-33 Kannan embedding",
      fun () ->
        let g = Mathkit.Prng.create ~seed:9L () in
        let qm = Mathkit.Modular.modulus 521 in
        let p1 = Mathkit.Poly.uniform g qm 16 in
        let inst =
          {
            Lattice.Embed.q = 521;
            a = Lattice.Embed.negacyclic_matrix ~q:521 p1;
            b = Array.init 16 (fun _ -> Mathkit.Prng.int g 521);
          }
        in
        let basis = Lattice.Embed.kannan_basis inst in
        Lattice.Lll.reduce basis )
  in
  (* fabric kernel: the shard-result codec every sharded campaign pays
     per shard *)
  let shard_result =
    let mk i =
      {
        Reveal.Campaign.actual = (i mod 9) - 4;
        verdict =
          {
            Sca.Attack.sign = (if i mod 2 = 0 then 1 else -1);
            value = (i mod 9) - 4;
            posterior = Array.init 8 (fun j -> (j - 4, 1.0 /. float_of_int (j + 2)));
          };
        posterior_all = Array.init 29 (fun j -> (j - 14, 1.0 /. float_of_int (j + 2)));
        grade = (if i mod 3 = 0 then Reveal.Campaign.Confident else Reveal.Campaign.Tentative);
        recovery = Reveal.Campaign.Clean;
      }
    in
    { Fabric.Shard.shard = 0; range = { Fabric.Shard.lo = 0; hi = 1 }; corrupt_skipped = 0; results = Array.init 64 mk }
  in
  let shard_kernel =
    ( "fabric: shard-result codec round-trip (64 coeffs)",
      fun () ->
        ignore (Fabric.Shard.result_of_payload ~path:"bench" (Fabric.Shard.result_payload shard_result)) )
  in
  (* telemetry pair: the same archive replay with live streaming armed
     (bounded queue -> background sender -> framed telemetry into
     /dev/null) and with the disabled context — the delta is what a
     campaign pays for being watchable *)
  let telemetry_archive = Filename.temp_file "reveal_bench_telemetry" ".rvt" in
  at_exit (fun () -> try Sys.remove telemetry_archive with Sys_error _ -> ());
  let tel_g = Mathkit.Prng.create ~seed:3L () in
  Reveal.Device.record device ~path:telemetry_archive ~seed:3L ~traces:2 ~scope_rng:tel_g ~sampler_rng:tel_g;
  let telemetry_replay obs () =
    ignore (Reveal.Campaign.run_source ?obs ~domains:1 prof (Reveal.Source.archive_replay telemetry_archive))
  in
  let telemetry_disabled_kernel =
    ("telemetry: replay 2-trace campaign, obs disabled", telemetry_replay None)
  in
  let tel_oc = open_out "/dev/null" in
  let tel_sender = Traceio.Wire.create_telemetry_sender ~peer:"bench" tel_oc in
  let tel_sink, _ =
    Obs.Sink.stream ~send:(Traceio.Wire.telemetry_send tel_sender) ~close:(fun () -> ()) ()
  in
  let tel_obs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~source:"bench" ~sink:tel_sink () in
  let telemetry_streaming_kernel =
    ("telemetry: replay 2-trace campaign, streaming sink", telemetry_replay (Some tel_obs))
  in
  [
    fig3_kernel;
    sim_kernel;
    synth_kernel;
    fault_kernel;
    segment_kernel;
    profiling_windows_kernel;
    acquire_kernel;
    decode_kernel;
    table1_kernel;
    scoring_fvec_kernel;
    replay_fvec_kernel;
    table3_kernel;
    table4_kernel;
    ctcheck_kernel;
    ntt_kernel;
    bfv_kernel;
    lll_kernel;
    shard_kernel;
    telemetry_disabled_kernel;
    telemetry_streaming_kernel;
  ]

(* --- perf snapshots and the strict gate ------------------------------------ *)

(* The gate does not compare bare kernel times: on a shared VM the
   processor runs up to ~1.5 times slower for stretches of seconds to
   minutes, and two back-to-back snapshots then differ by that much on
   kernels nobody touched.  Each kernel is instead timed in rounds
   against a fixed reference computation that calls no library code,
   timed right before and right after every round: a round's sample is
   the kernel's time per run over the mean of those two reference
   times.  A slow stretch moves both and largely cancels; a slower
   kernel moves only its own time.  (campaign_bench/calib.ml scales
   whole campaigns the same way.)  Both are timed in process CPU time,
   so the time the process waits for a processor other processes hold
   counts in neither.

   The reference mixes what the kernels do: Gaussian draws from an
   integer generator, float64 encode and decode through a byte buffer,
   dot products over a matrix and a branchy table-driven integer
   loop. *)
let xorshift x =
  let x = x lxor ((x lsl 13) land max_int) in
  let x = x lxor (x lsr 7) in
  x lxor ((x lsl 17) land max_int)

(* One run of the reference: about a third of a millisecond on a
   2-vCPU VM.  Its buffers are made once and reused by every run. *)
let reference_run =
  let n = 1 lsl 12 and rows = 8 in
  let v = Array.make n 0.0 in
  let m = Array.init (rows * n) (fun i -> float_of_int (i * 104729 mod 1021) /. 1021.0) in
  let b = Bytes.create (8 * n) in
  let prog = Array.init 4096 (fun i -> i * 2654435761 land 0xFFFF) in
  fun () ->
    let x = ref 0x9E3779B1 in
    for i = 0 to n - 1 do
      x := xorshift !x;
      let u1 = (float_of_int (!x land 0xFFFFFF) +. 1.0) /. 16777217.0 in
      x := xorshift !x;
      let u2 = float_of_int (!x land 0xFFFFFF) /. 16777216.0 in
      v.(i) <- sqrt (-2.0 *. log u1) *. cos (6.283185307179586 *. u2)
    done;
    for i = 0 to n - 1 do
      Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v.(i))
    done;
    for i = 0 to n - 1 do
      v.(i) <- Int64.float_of_bits (Bytes.get_int64_le b (8 * i))
    done;
    let dots = ref 0.0 in
    for r = 0 to rows - 1 do
      for i = 0 to n - 1 do
        dots := !dots +. (m.((r * n) + i) *. v.(i))
      done
    done;
    let acc = ref !x and pc = ref 0 in
    for _ = 1 to 4 * n do
      let op = prog.(!pc) in
      (match op land 7 with
      | 0 -> acc := !acc + op
      | 1 -> acc := !acc lxor op
      | 2 -> acc := !acc - (op lsr 3)
      | 3 -> acc := (!acc lsl 1) land max_int
      | 4 -> acc := !acc lsr 1
      | 5 -> acc := !acc + (!acc land op)
      | 6 -> acc := !acc lor (op lsl 2)
      | _ -> acc := !acc * 3);
      pc := (!pc + 1 + (!acc land 3)) land 4095
    done;
    ignore (Sys.opaque_identity (!dots, !acc))

let gate_rounds = 50

(* A kernel fails the strict gate when the 95 % bootstrap interval of
   its scaled new/old ratio lies wholly above this. *)
let gate_threshold = 1.12

let time_reps f reps =
  (* srclint: allow nondet-source the gate's samples are real CPU-time measurements by design *)
  let t0 = Sys.time () in
  for _ = 1 to reps do
    f ()
  done;
  (* srclint: allow nondet-source the gate's samples are real CPU-time measurements by design *)
  Sys.time () -. t0

(* [rounds] samples of each kernel, as [(raw, scaled)]: the seconds
   per run and that time over the reference's.  A round samples every
   kernel once, in turn, so each kernel's samples spread over the whole
   snapshot rather than over one stretch of it.  A sample runs the
   smallest power-of-two batch of the kernel that takes at least 2 ms,
   from a fully collected heap (no sample pays for garbage another
   kernel left behind), between two runs of the reference. *)
let timed_samples ~rounds kernels =
  let rec batch f reps = if reps >= 1 lsl 20 || time_reps f reps >= 0.002 then reps else batch f (2 * reps) in
  let kernels = Array.of_list (List.map (fun (_, f) -> (f, batch f 1)) kernels) in
  let raw = Array.map (fun _ -> Array.make rounds 0.0) kernels in
  let scaled = Array.map (fun _ -> Array.make rounds 0.0) kernels in
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun k (f, reps) ->
        Gc.full_major ();
        let before = time_reps reference_run 1 in
        let per_run = time_reps f reps /. float_of_int reps in
        let after = time_reps reference_run 1 in
        raw.(k).(r) <- per_run;
        scaled.(k).(r) <- per_run /. ((before +. after) /. 2.0))
      kernels
  done;
  (raw, scaled)

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The 2.5 and 97.5 percentiles of median(new) / median(old) over 2000
   resamplings of both sample sets, from a fixed seed. *)
let ratio_ci ~old_s ~new_s =
  let g = Mathkit.Prng.create ~seed:0x5EEDL () in
  let resample xs = Array.init (Array.length xs) (fun _ -> xs.(Mathkit.Prng.int g (Array.length xs))) in
  let ratios = Array.init 2000 (fun _ -> median (resample new_s) /. median (resample old_s)) in
  Array.sort Float.compare ratios;
  (ratios.(50), ratios.(1949))

let snapshot_path = Filename.concat out_dir "BENCH_perf.json"
let snapshot_prev_path = Filename.concat out_dir "BENCH_perf.prev.json"

(* (kernel name, ns/run, scaled samples) rows of an existing snapshot;
   [] when absent or unreadable — a missing baseline is not an error.
   A row without samples (an older snapshot) has no gate baseline. *)
let load_snapshot path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let open Obs.Json in
      (match parse (String.trim s) with
      | Ok j -> (
          match member "results" j with
          | Some (List items) ->
              List.filter_map
                (fun item ->
                  let scaled =
                    match member "scaled" item with
                    | Some (List xs) -> Array.of_list (List.filter_map to_float_opt xs)
                    | _ -> [||]
                  in
                  match
                    (Option.bind (member "name" item) to_string_opt, Option.bind (member "ns_per_run" item) to_float_opt)
                  with
                  | Some name, Some ns -> Some (name, ns, scaled)
                  | _ -> None)
                items
          | _ -> [])
      | Error _ -> [])

let write_snapshot rows =
  ensure_out_dir ();
  let prev = load_snapshot snapshot_path in
  if prev <> [] then begin
    (* rotate: the fresh snapshot always has a predecessor to diff against *)
    (try Sys.remove snapshot_prev_path with Sys_error _ -> ());
    Sys.rename snapshot_path snapshot_prev_path
  end;
  let open Obs.Json in
  let json =
    Obj
      [
        ( "results",
          List
            (List.map
               (fun (name, ns, scaled) ->
                 Obj
                   [
                     ("name", String name);
                     ("ns_per_run", Float ns);
                     ("scaled", List (Array.to_list (Array.map (fun x -> Float x) scaled)));
                   ])
               rows) );
      ]
  in
  let oc = open_out snapshot_path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(snapshot written to %s)\n" snapshot_path;
  if prev <> [] then begin
    Printf.printf "vs previous snapshot (%s): scaled new/old ratio, 95%% bootstrap interval\n" snapshot_prev_path;
    let regressed = ref [] and fresh = ref [] in
    List.iter
      (fun (name, ns, scaled) ->
        match List.find_opt (fun (n, _, _) -> n = name) prev with
        | Some (_, old_ns, old_s) when Array.length old_s > 0 && Array.length scaled > 0 ->
            let lo, hi = ratio_ci ~old_s ~new_s:scaled in
            let verdict =
              if lo > gate_threshold then begin
                regressed := (name, lo, hi) :: !regressed;
                "  REGRESSED"
              end
              else if hi < 1.0 /. gate_threshold then "  improved"
              else ""
            in
            Printf.printf "  %-52s %.2fx [%.2f, %.2f] (%.1f -> %.1f ns/run)%s\n" name
              (median scaled /. median old_s)
              lo hi old_ns ns verdict
        | _ ->
            (* a kernel with no baseline samples cannot regress: report
               it as informational only — it must neither warn nor trip
               the strict gate *)
            fresh := name :: !fresh)
      rows;
    List.iter (fun name -> Printf.printf "  (no baseline samples: %s)\n" name) (List.rev !fresh);
    (* Advisory by default, but REVEAL_PERF_STRICT=1 turns a regression
       into a hard failure. *)
    match Sys.getenv_opt "REVEAL_PERF_STRICT" with
    | Some ("1" | "true" | "yes") when !regressed <> [] ->
        Printf.printf "REVEAL_PERF_STRICT: %d kernel(s) regressed: the whole interval lies above %.2fx:\n"
          (List.length !regressed) gate_threshold;
        List.iter (fun (name, lo, hi) -> Printf.printf "  %s [%.2f, %.2f]\n" name lo hi) (List.rev !regressed);
        exit 1
    | Some ("1" | "true" | "yes") ->
        Printf.printf "(REVEAL_PERF_STRICT: no kernel's interval lies wholly above %.2fx)\n" gate_threshold
    | _ -> Printf.printf "(regression flags are advisory unless REVEAL_PERF_STRICT=1)\n"
  end

(* Every kernel gets a row: its ns/run is the median of its raw
   samples, the same rounds the gate reads scaled. *)
let run_perf () =
  section (Printf.sprintf "micro-benchmarks (one per table/figure kernel, %d rounds, process CPU time)" gate_rounds);
  let kernels = perf_tests () in
  let raw, scaled = timed_samples ~rounds:gate_rounds kernels in
  let rows =
    List.mapi
      (fun k (name, _) ->
        let ns = 1e9 *. median raw.(k) in
        Printf.printf "  %-52s %12.1f ns/run\n" name ns;
        (name, ns, scaled.(k)))
      kernels
  in
  write_snapshot (List.sort compare rows)

let () =
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--full") in
  let cfg = config () in
  (* one profiled campaign, shared by every artefact that needs it *)
  let env =
    lazy
      (Printf.printf "profiling templates and running single-trace attacks...\n%!";
       let t0 = now () in
       let e = Reveal.Experiment.prepare cfg in
       Printf.printf "(campaign finished in %.1f s)\n%!" (now () -. t0);
       e)
  in
  let artefact (name, build) =
    section name;
    print_string (build cfg env).Reveal.Report.text;
    if name = "fig3" then save_fig3_csvs cfg
  in
  match args with
  | [] | [ "all" ] ->
      List.iter artefact Reveal.Experiment.artefacts;
      run_ctcheck ();
      print_endline "\nall artefacts regenerated; see EXPERIMENTS.md for paper-vs-measured discussion"
  | [ "traceio" ] -> run_traceio ()
  | [ "ctcheck" ] -> run_ctcheck ()
  | [ "obs" ] -> run_obs ()
  | [ "perf" ] -> run_perf ()
  | [ name ] when List.mem_assoc name Reveal.Experiment.artefacts ->
      artefact (name, List.assoc name Reveal.Experiment.artefacts)
  | _ ->
      Printf.eprintf "usage: bench/main.exe [--full] [all | ARTEFACT | traceio | ctcheck | obs | perf]\nartefacts: %s\n"
        (String.concat " " Reveal.Experiment.artefact_names);
      exit 2
