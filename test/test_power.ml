(* Leakage model and trace synthesis. *)

let rng () = Mathkit.Prng.create ~seed:7777L ()

let test_hamming_weight () =
  Alcotest.(check int) "0" 0 (Power.Leakage.hamming_weight 0);
  Alcotest.(check int) "1" 1 (Power.Leakage.hamming_weight 1);
  Alcotest.(check int) "0xFF" 8 (Power.Leakage.hamming_weight 0xFF);
  Alcotest.(check int) "all 32" 32 (Power.Leakage.hamming_weight 0xFFFFFFFF);
  Alcotest.(check int) "truncated to 32 bits" 32 (Power.Leakage.hamming_weight (-1))

let test_hamming_distance () =
  Alcotest.(check int) "same" 0 (Power.Leakage.hamming_distance 0xAB 0xAB);
  Alcotest.(check int) "one flip" 1 (Power.Leakage.hamming_distance 0 1);
  Alcotest.(check int) "complement" 32 (Power.Leakage.hamming_distance 0 0xFFFFFFFF)

let make_event ?(klass = Riscv.Inst.K_arith) ?(rs1 = 0) ?(rs2 = 0) ?(rd_old = 0) ?(rd_new = 0) ?mem () =
  {
    Riscv.Trace.index = 0;
    cycle = 0;
    cycles = 3;
    pc = 0;
    inst = Riscv.Inst.Add (1, 2, 3);
    klass;
    rs1_value = rs1;
    rs2_value = rs2;
    rd_old;
    rd_new;
    mem_addr = None;
    mem_value = mem;
  }

let test_leakage_monotone_in_hw () =
  let m = Power.Leakage.default in
  let p0 = Power.Leakage.of_event m (make_event ~rs1:0 ()) in
  let p1 = Power.Leakage.of_event m (make_event ~rs1:0xFF ()) in
  Alcotest.(check bool) "more bits, more power" true (p1 > p0)

let test_leakage_hd_term () =
  let m = Power.Leakage.default in
  let quiet_write = Power.Leakage.of_event m (make_event ~rd_old:0xFF ~rd_new:0xFF ()) in
  let toggling_write = Power.Leakage.of_event m (make_event ~rd_old:0xFF ~rd_new:0xFF00 ()) in
  Alcotest.(check bool) "toggles cost" true (toggling_write > quiet_write)

let test_leakage_class_ordering () =
  let m = Power.Leakage.default in
  let p k = Power.Leakage.of_event m (make_event ~klass:k ()) in
  Alcotest.(check bool) "div > mul" true (p Riscv.Inst.K_div > p Riscv.Inst.K_mul);
  Alcotest.(check bool) "mul > arith" true (p Riscv.Inst.K_mul > p Riscv.Inst.K_arith);
  Alcotest.(check bool) "taken > not taken" true (p Riscv.Inst.K_branch_taken > p Riscv.Inst.K_branch_not_taken)

let test_leakage_ablations () =
  let e = make_event ~rd_old:0 ~rd_new:0xFFFF ~rs1:0xF () in
  let hw = Power.Leakage.of_event Power.Leakage.hw_only e in
  let hd = Power.Leakage.of_event Power.Leakage.hd_only e in
  let full = Power.Leakage.of_event Power.Leakage.default e in
  Alcotest.(check bool) "full >= hw variant" true (full >= hw);
  Alcotest.(check bool) "full >= hd variant" true (full >= hd)

let events_of_program items =
  let prog = Riscv.Asm.assemble items in
  let mem = Riscv.Memory.create 4096 in
  Riscv.Memory.load_program mem 0 prog.Riscv.Asm.words;
  let r = Riscv.Trace.recorder () in
  let cpu = Riscv.Cpu.create ~tracer:(Riscv.Trace.record r) mem in
  ignore (Riscv.Cpu.run cpu);
  Riscv.Trace.events r

let test_synth_sample_count () =
  let events = events_of_program [ Riscv.Asm.nop; Riscv.Asm.nop; Riscv.Asm.halt ] in
  let total_cycles = Array.fold_left (fun acc e -> acc + e.Riscv.Trace.cycles) 0 events in
  let t = Power.Synth.synthesize Power.Synth.quiet events in
  Alcotest.(check int) "samples = cycles * spc" (total_cycles * 2) (Power.Ptrace.length t);
  Alcotest.(check int) "event starts recorded" (Array.length events) (Array.length t.Power.Ptrace.event_start)

let test_synth_deterministic () =
  let events = events_of_program [ Riscv.Asm.li (Riscv.Inst.a 0) 42; Riscv.Asm.halt ] in
  let t1 = Power.Synth.synthesize Power.Synth.quiet events in
  let t2 = Power.Synth.synthesize Power.Synth.quiet events in
  Alcotest.(check bool) "identical noise-free traces" true (t1.Power.Ptrace.samples = t2.Power.Ptrace.samples)

let test_synth_noise_needs_rng () =
  let events = events_of_program [ Riscv.Asm.halt ] in
  Alcotest.check_raises "no rng" (Invalid_argument "Synth.synthesize: noisy synthesis needs an explicit rng") (fun () ->
      ignore (Power.Synth.synthesize Power.Synth.default events))

let test_synth_noise_statistics () =
  let events = events_of_program (List.init 300 (fun _ -> Riscv.Asm.nop) @ [ Riscv.Asm.halt ]) in
  let g = rng () in
  let quiet = Power.Synth.synthesize Power.Synth.quiet events in
  let noisy = Power.Synth.synthesize ~rng:g Power.Synth.default events in
  let diffs = Array.mapi (fun i s -> s -. quiet.Power.Ptrace.samples.(i)) noisy.Power.Ptrace.samples in
  let sd = sqrt (Mathkit.Stats.variance_a diffs) in
  Alcotest.(check bool) "noise sigma honoured" true (Float.abs (sd -. Power.Synth.default.Power.Synth.noise_sigma) < 0.03);
  Alcotest.(check bool) "noise mean ~ 0" true (Float.abs (Mathkit.Stats.mean_a diffs) < 0.03)

let test_synth_value_dependence () =
  (* Same instruction sequence with a different immediate leaks a
     different trace: that is the whole point. *)
  let trace v = Power.Synth.synthesize Power.Synth.quiet (events_of_program [ Riscv.Asm.li (Riscv.Inst.a 0) v; Riscv.Asm.halt ]) in
  let t0 = trace 0 and t1 = trace 0xFF in
  Alcotest.(check bool) "value visible in power" true (t0.Power.Ptrace.samples <> t1.Power.Ptrace.samples)

(* The bytes [Ptrace.save_csv] writes for [t]. *)
let saved_csv t =
  let path = Filename.temp_file "reveal_ptrace" ".csv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  Power.Ptrace.save_csv path t;
  let ic = open_in_bin path in
  let csv = really_input_string ic (in_channel_length ic) in
  close_in ic;
  csv

let test_ptrace_csv () =
  let events = events_of_program [ Riscv.Asm.halt ] in
  let t = Power.Synth.synthesize Power.Synth.quiet events in
  let csv = saved_csv t in
  Alcotest.(check bool) "header" true (String.length csv > 12 && String.sub csv 0 11 = "index,power");
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one line per sample + header" (Power.Ptrace.length t + 1) (List.length lines)

(* The round-trip reader for [save_csv] files: one [%.6f] sample per
   "index,power" row after the header. *)
let load_csv csv =
  match String.split_on_char '\n' csv with
  | "index,power" :: rows ->
      List.filter (fun l -> l <> "") rows
      |> List.map (fun l -> float_of_string (List.nth (String.split_on_char ',' l) 1))
      |> Array.of_list
  | _ -> Alcotest.fail "CSV does not start with an index,power header"

let test_ptrace_csv_roundtrip () =
  let events = events_of_program [ Riscv.Asm.li (Riscv.Inst.a 0) 0xAB; Riscv.Asm.halt ] in
  let t = Power.Synth.synthesize Power.Synth.quiet events in
  let csv = saved_csv t in
  (* the streaming writer renders exactly the documented row format *)
  let expected = Buffer.create 4096 in
  Buffer.add_string expected "index,power\n";
  Array.iteri (fun i s -> Printf.bprintf expected "%d,%.6f\n" i s) t.Power.Ptrace.samples;
  Alcotest.(check string) "save_csv row format" (Buffer.contents expected) csv;
  let back = load_csv csv in
  Alcotest.(check int) "sample count" (Power.Ptrace.length t) (Array.length back);
  (* %.6f rendering quantises: compare at that precision *)
  Array.iteri
    (fun i s -> Alcotest.(check (float 1e-6)) (Printf.sprintf "sample %d" i) s back.(i))
    t.Power.Ptrace.samples

let test_ptrace_save_csv_reports_path () =
  let events = events_of_program [ Riscv.Asm.halt ] in
  let t = Power.Synth.synthesize Power.Synth.quiet events in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "no-such-dir-reveal/trace.csv" in
  match Power.Ptrace.save_csv path t with
  | exception Failure msg ->
      let contains affix =
        let n = String.length affix and m = String.length msg in
        let rec go i = i + n <= m && (String.sub msg i n = affix || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the target path" true (contains path)
  | () -> Alcotest.fail "save_csv into a missing directory succeeded"

let test_ascii_plot_shape () =
  let samples = Array.init 500 (fun i -> sin (float_of_int i /. 20.0)) in
  let plot = Power.Ptrace.ascii_plot ~height:10 samples in
  let lines = String.split_on_char '\n' plot |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "height + axis + caption" 12 (List.length lines);
  Alcotest.(check bool) "has marks" true (String.contains plot '*')

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("hamming weight", test_hamming_weight);
      ("hamming distance", test_hamming_distance);
      ("leakage monotone in HW", test_leakage_monotone_in_hw);
      ("leakage HD term", test_leakage_hd_term);
      ("leakage class ordering", test_leakage_class_ordering);
      ("leakage ablation variants", test_leakage_ablations);
      ("synth sample count", test_synth_sample_count);
      ("synth deterministic", test_synth_deterministic);
      ("synth noise needs rng", test_synth_noise_needs_rng);
      ("synth noise statistics", test_synth_noise_statistics);
      ("synth value dependence", test_synth_value_dependence);
      ("ptrace csv", test_ptrace_csv);
      ("ptrace csv round-trip (streaming + test reader)", test_ptrace_csv_roundtrip);
      ("ptrace save_csv reports path", test_ptrace_save_csv_reports_path);
      ("ascii plot shape", test_ascii_plot_shape);
    ]

(* --- Fault ------------------------------------------------------------- *)

let ptrace_of samples =
  { Power.Ptrace.samples; samples_per_cycle = 2; event_start = [||]; event_pc = [||] }

let test_fault_of_intensity_endpoints () =
  Alcotest.(check bool) "0 is none" true (Power.Fault.of_intensity 0.0 = Power.Fault.none);
  Alcotest.(check bool) "negative clamps to none" true (Power.Fault.of_intensity (-3.0) = Power.Fault.none);
  Alcotest.(check bool) "1 is full" true (Power.Fault.of_intensity 1.0 = Power.Fault.full);
  Alcotest.(check bool) "none is noop" true (Power.Fault.is_noop Power.Fault.none);
  Alcotest.(check bool) "full is not" false (Power.Fault.is_noop Power.Fault.full);
  let extreme = Power.Fault.of_intensity 10.0 in
  Alcotest.(check bool) "clip fraction capped" true (extreme.Power.Fault.clip_fraction <= 0.95)

let test_fault_clip_ceiling () =
  let t = ptrace_of (Array.init 100 (fun i -> float_of_int (i mod 10))) in
  let cfg = { Power.Fault.none with Power.Fault.clip_fraction = 0.5 } in
  let g = rng () in
  let out = (Power.Fault.apply ~rng:g cfg t).Power.Ptrace.samples in
  Alcotest.(check int) "length preserved" 100 (Array.length out);
  Alcotest.(check (float 1e-9)) "ceiling = lo + 0.5 range" 4.5 (Array.fold_left Float.max out.(0) out)

let test_fault_full_corrupts () =
  let t = ptrace_of (Array.init 2000 (fun i -> if i mod 97 < 8 then 25.0 else 10.0)) in
  let g = rng () in
  let out = (Power.Fault.apply ~rng:g Power.Fault.full t).Power.Ptrace.samples in
  Alcotest.(check bool) "samples changed" true (out <> t.Power.Ptrace.samples)

let test_fault_empty_trace () =
  let t = ptrace_of [||] in
  let g = rng () in
  let out = (Power.Fault.apply ~rng:g Power.Fault.full t).Power.Ptrace.samples in
  Alcotest.(check int) "empty stays empty" 0 (Array.length out)

let test_fault_short_trace_survives_jitter () =
  (* trigger_jitter (48) larger than the trace: the offset clamps *)
  let t = ptrace_of (Array.init 5 float_of_int) in
  let g = rng () in
  let out = (Power.Fault.apply ~rng:g { Power.Fault.none with Power.Fault.trigger_jitter = 48 } t).Power.Ptrace.samples in
  Alcotest.(check int) "length preserved" 5 (Array.length out)

let fault_cases =
  [
    ("fault of_intensity endpoints", test_fault_of_intensity_endpoints);
    ("fault clip ceiling", test_fault_clip_ceiling);
    ("fault full corrupts", test_fault_full_corrupts);
    ("fault empty trace", test_fault_empty_trace);
    ("fault short trace survives jitter", test_fault_short_trace_survives_jitter);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) fault_cases

let samples_gen = QCheck.(list_of_size QCheck.Gen.(int_range 16 256) (float_range (-5.0) 40.0))

let fault_noop_prop =
  QCheck.Test.make ~name:"Fault: intensity 0 applies as a bit-exact no-op" ~count:40
    QCheck.(pair samples_gen int)
    (fun (samples, seed) ->
      let t = ptrace_of (Array.of_list samples) in
      let cfg = Power.Fault.of_intensity 0.0 in
      let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
      Power.Fault.is_noop cfg && (Power.Fault.apply ~rng:g cfg t).Power.Ptrace.samples == t.Power.Ptrace.samples)

let fault_reproducible_prop =
  QCheck.Test.make ~name:"Fault: bit-reproducible under a fixed seed" ~count:40
    QCheck.(triple samples_gen (float_range 0.05 1.5) int)
    (fun (samples, intensity, seed) ->
      let t = ptrace_of (Array.of_list samples) in
      let cfg = Power.Fault.of_intensity intensity in
      let corrupt () =
        (Power.Fault.apply ~rng:(Mathkit.Prng.create ~seed:(Int64.of_int seed) ()) cfg t).Power.Ptrace.samples
      in
      corrupt () = corrupt ())

(* A random fault case: trace length (short ones, under the jitter
   window, are drawn often), a 6-bit channel mask (drift, glitches,
   clipping, drops, duplicates, jitter), an intensity in [0, 3], a seed
   for the fault stream and one for the samples, and whether the
   samples are few distinct levels (ties everywhere, signed zeros
   included) or noisy bursts. *)
let fault_case_gen =
  QCheck.Gen.(
    pair
      (quad (oneof [ int_range 0 64; int_range 0 3000 ]) (int_bound 63) (float_range 0.0 3.0) int)
      (pair int bool))

let fault_case_print ((n, mask, intensity, seed), (sample_seed, ties)) =
  Printf.sprintf "n=%d mask=%#x intensity=%g seed=%d sample_seed=%d ties=%b" n mask intensity seed sample_seed ties

let fault_case =
  QCheck.make ~print:fault_case_print fault_case_gen

let fault_config mask intensity =
  let c = Power.Fault.of_intensity intensity and off = Power.Fault.none in
  let on k = mask land (1 lsl k) <> 0 in
  {
    Power.Fault.drift_amplitude = (if on 0 then c.Power.Fault.drift_amplitude else off.Power.Fault.drift_amplitude);
    drift_period = (if on 0 then c.Power.Fault.drift_period else off.Power.Fault.drift_period);
    glitch_rate = (if on 1 then c.Power.Fault.glitch_rate else off.Power.Fault.glitch_rate);
    glitch_amplitude = (if on 1 then c.Power.Fault.glitch_amplitude else off.Power.Fault.glitch_amplitude);
    glitch_width = (if on 1 then c.Power.Fault.glitch_width else off.Power.Fault.glitch_width);
    clip_fraction = (if on 2 then c.Power.Fault.clip_fraction else off.Power.Fault.clip_fraction);
    drop_rate = (if on 3 then c.Power.Fault.drop_rate else off.Power.Fault.drop_rate);
    dup_rate = (if on 4 then c.Power.Fault.dup_rate else off.Power.Fault.dup_rate);
    trigger_jitter = (if on 5 then c.Power.Fault.trigger_jitter else off.Power.Fault.trigger_jitter);
  }

let fault_trace n ~ties sample_seed =
  let g = Mathkit.Prng.create ~seed:(Int64.of_int sample_seed) () in
  ptrace_of
    (Array.init n (fun i ->
         if ties then (match Mathkit.Prng.int g 7 with 6 -> -0.0 | k -> float_of_int k)
         else (if i mod 97 < 8 then 25.0 else 10.0) +. Mathkit.Prng.float g))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let fault_oracle_prop =
  QCheck.Test.make ~name:"Fault: one-pass apply equals the staged oracle bit for bit" ~count:400 fault_case
    (fun ((n, mask, intensity, seed), (sample_seed, ties)) ->
      let t = fault_trace n ~ties sample_seed and cfg = fault_config mask intensity in
      let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
      let g' = Mathkit.Prng.copy g in
      let got = (Power.Fault.apply ~rng:g cfg t).Power.Ptrace.samples in
      let want = (Fault_oracle.apply ~rng:g' cfg t).Power.Ptrace.samples in
      (* same samples, and the same draws consumed *)
      same_bits got want && Mathkit.Prng.bits64 g = Mathkit.Prng.bits64 g')

let fault_no_mutation_prop =
  QCheck.Test.make ~name:"Fault: apply never mutates its input" ~count:200 fault_case
    (fun ((n, mask, intensity, seed), (sample_seed, ties)) ->
      let t = fault_trace n ~ties sample_seed and cfg = fault_config mask intensity in
      let before = Array.copy t.Power.Ptrace.samples in
      let out = Power.Fault.apply ~rng:(Mathkit.Prng.create ~seed:(Int64.of_int seed) ()) cfg t in
      (* nor aliases it: an empty array is the one shared atom *)
      same_bits before t.Power.Ptrace.samples
      && (Power.Fault.is_noop cfg || n = 0 || out.Power.Ptrace.samples != t.Power.Ptrace.samples))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ fault_noop_prop; fault_reproducible_prop; fault_oracle_prop; fault_no_mutation_prop ]

(* --- Fvec synthesis (numeric core refactor) ------------------------------- *)

let test_synthesize_into_bit_identity () =
  let events =
    events_of_program
      [ Riscv.Asm.li (Riscv.Inst.a 0) 0x5A; Riscv.Asm.li (Riscv.Inst.a 1) 3; Riscv.Asm.halt ]
  in
  let check_config name config rng_seed =
    let rng = Mathkit.Prng.create ~seed:rng_seed () in
    let reference = Power.Synth.synthesize ~rng config events in
    let n_ref = Power.Ptrace.length reference in
    let out = Mathkit.Fvec.create (n_ref + 7) in
    let rng2 = Mathkit.Prng.create ~seed:rng_seed () in
    let n = Power.Synth.synthesize_into ~rng:rng2 config events ~out in
    Alcotest.(check int) (name ^ ": sample count") n_ref n;
    Array.iteri
      (fun i s ->
        Alcotest.(check int64)
          (Printf.sprintf "%s: sample %d bits" name i)
          (Int64.bits_of_float s)
          (Int64.bits_of_float (Mathkit.Fvec.get out i)))
      reference.Power.Ptrace.samples
  in
  check_config "quiet" Power.Synth.quiet 9L;
  check_config "noisy" Power.Synth.default 9L;
  (* an undersized output must raise, not truncate *)
  let tiny = Mathkit.Fvec.create 1 in
  match Power.Synth.synthesize_into Power.Synth.quiet events ~out:tiny with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "synthesize_into into a short buffer succeeded"

let suite =
  suite @ [ Alcotest.test_case "synthesize_into bit-identical to synthesize" `Quick test_synthesize_into_bit_identity ]
