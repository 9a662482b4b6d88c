(* Leakage model and trace synthesis. *)

let rng () = Mathkit.Prng.create ~seed:7777L ()

(* The bit-by-bit count [hamming_weight] made before the SWAR popcount. *)
let popcount_oracle v =
  let v = v land 0xFFFFFFFF in
  let n = ref 0 in
  for b = 0 to 31 do
    if (v lsr b) land 1 = 1 then incr n
  done;
  !n

let test_hamming_weight () =
  Alcotest.(check int) "0" 0 (Power.Leakage.hamming_weight 0);
  Alcotest.(check int) "1" 1 (Power.Leakage.hamming_weight 1);
  Alcotest.(check int) "0xFF" 8 (Power.Leakage.hamming_weight 0xFF);
  Alcotest.(check int) "all 32" 32 (Power.Leakage.hamming_weight 0xFFFFFFFF);
  Alcotest.(check int) "truncated to 32 bits" 32 (Power.Leakage.hamming_weight (-1));
  let check v =
    Alcotest.(check int) (Printf.sprintf "%#x" v) (popcount_oracle v) (Power.Leakage.hamming_weight v)
  in
  List.iter check [ min_int; max_int; 1 lsl 32; 0x80000000; 0x55555555; 0xAAAAAAAA ];
  let g = rng () in
  for _ = 1 to 10_000 do
    check (Int64.to_int (Mathkit.Prng.bits64 g))
  done

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

(* The model's two levels of one event, through the writer synthesis
   uses: the first, data-carrying cycle and the rest. *)
let levels m e =
  let first = [| nan |] and rest = [| nan |] in
  Power.Leakage.write m e ~first ~rest 0;
  (first.(0), rest.(0))

let of_event m e = fst (levels m e)

let test_leakage_monotone_in_hw () =
  let m = Power.Leakage.default in
  let p0 = of_event m (make_event ~rs1:0 ()) in
  let p1 = of_event m (make_event ~rs1:0xFF ()) in
  Alcotest.(check bool) "more bits, more power" true (p1 > p0)

let test_leakage_hd_term () =
  let m = Power.Leakage.default in
  let quiet_write = of_event m (make_event ~rd_old:0xFF ~rd_new:0xFF ()) in
  let toggling_write = of_event m (make_event ~rd_old:0xFF ~rd_new:0xFF00 ()) in
  Alcotest.(check bool) "toggles cost" true (toggling_write > quiet_write)

let test_leakage_class_ordering () =
  let m = Power.Leakage.default in
  let p k = of_event m (make_event ~klass:k ()) in
  Alcotest.(check bool) "div > mul" true (p Riscv.Inst.K_div > p Riscv.Inst.K_mul);
  Alcotest.(check bool) "mul > arith" true (p Riscv.Inst.K_mul > p Riscv.Inst.K_arith);
  Alcotest.(check bool) "taken > not taken" true (p Riscv.Inst.K_branch_taken > p Riscv.Inst.K_branch_not_taken)

let test_leakage_ablations () =
  let e = make_event ~rd_old:0 ~rd_new:0xFFFF ~rs1:0xF () in
  let hw = of_event Power.Leakage.hw_only e in
  let hd = of_event Power.Leakage.hd_only e in
  let full = of_event Power.Leakage.default e in
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
  Alcotest.(check int) "samples = cycles * spc" (total_cycles * 2) (Power.Ptrace.length t)

(* At one sample per cycle the pulse shape is 1.0, so a trace is the
   leakage model's levels themselves: an event's first cycle at its
   first level, the rest at its residual. *)
let one_per_cycle = { Power.Synth.quiet with Power.Synth.samples_per_cycle = 1 }

let expected_samples events =
  let model = one_per_cycle.Power.Synth.model in
  Array.concat
    (Array.to_list
       (Array.map
          (fun e ->
            Array.init e.Riscv.Trace.cycles (fun c ->
                let first, rest = levels model e in
                if c = 0 then first else rest))
          events))

let check_trace label events (t : Power.Ptrace.t) =
  Alcotest.(check (array int64)) (label ^ ": samples")
    (Array.map Int64.bits_of_float (expected_samples events))
    (Array.map Int64.bits_of_float t.Power.Ptrace.samples)

(* The accumulator's columns pass from one finished accumulator to the
   next in a domain: long, short and long runs, and two accumulators
   fed at once, each give exactly their own events' trace. *)
let test_synth_accumulator_reuse () =
  let loop count =
    events_of_program
      Riscv.Asm.
        [
          li (Riscv.Inst.a 0) count; label "l"; ins (Riscv.Inst.Mul (Riscv.Inst.a 1, Riscv.Inst.a 0, Riscv.Inst.a 0));
          ins (Riscv.Inst.Addi (Riscv.Inst.a 0, Riscv.Inst.a 0, -1)); bne (Riscv.Inst.a 0) Riscv.Inst.x0 "l"; halt;
        ]
  in
  let long = loop 1500 and short = loop 1 and longer = loop 2500 in
  List.iter
    (fun (label, events) -> check_trace label events (Power.Synth.synthesize one_per_cycle events))
    [ ("long", long); ("short", short); ("longer", longer); ("empty", [||]); ("long again", long) ];
  let a = Power.Synth.accumulator one_per_cycle and b = Power.Synth.accumulator one_per_cycle in
  Array.iteri (fun i e -> if i < 1000 then Power.Synth.feed a e) longer;
  Array.iter (Power.Synth.feed b) short;
  check_trace "inner" short (Power.Synth.finish b);
  Array.iteri (fun i e -> if i >= 1000 then Power.Synth.feed a e) longer;
  check_trace "outer" longer (Power.Synth.finish a)

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
  { Power.Ptrace.samples; samples_per_cycle = 2 }

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

(* --- kernels pinned bit for bit ----------------------------------------- *)

(* The tabled drift row against the staged oracle's [sin] per sample:
   in one domain the row grows (3000 -> 5000), is read as a prefix
   (10), and is replaced when the amplitude or the period changes. *)
let test_fault_drift_row () =
  let drift amplitude period = { Power.Fault.none with Power.Fault.drift_amplitude = amplitude; drift_period = period } in
  let a = drift 1.25 4096 and b = drift 2.5 4096 and c = drift 1.25 1000 in
  List.iter
    (fun (name, cfg, n) ->
      let t = fault_trace n ~ties:false n in
      let g = Mathkit.Prng.create ~seed:3L () in
      let g' = Mathkit.Prng.copy g in
      let got = (Power.Fault.apply ~rng:g cfg t).Power.Ptrace.samples in
      let want = (Fault_oracle.apply ~rng:g' cfg t).Power.Ptrace.samples in
      Alcotest.(check bool) (Printf.sprintf "%s, %d samples" name n) true (same_bits got want))
    [
      ("a", a, 3000); ("a", a, 10); ("a", a, 5000); ("b", b, 10); ("b", b, 5000); ("a", a, 3000);
      ("c", c, 5000); ("a", a, 5000);
    ]

(* The domain's fault scratch (working copy, drop/dup fates, the
   selection buffer) is reused from trace to trace: long, short and long
   traces under two alternating configs, every channel on, must each
   equal the staged oracle, with the same draws consumed. *)
let test_fault_scratch_reuse () =
  let half = Power.Fault.of_intensity 0.5 and heavy = Power.Fault.of_intensity 1.7 in
  List.iteri
    (fun k (name, cfg, n) ->
      let t = fault_trace n ~ties:(k mod 2 = 1) (n + k) in
      let g = Mathkit.Prng.create ~seed:(Int64.of_int (k + 1)) () in
      let g' = Mathkit.Prng.copy g in
      let got = (Power.Fault.apply ~rng:g cfg t).Power.Ptrace.samples in
      let want = (Fault_oracle.apply ~rng:g' cfg t).Power.Ptrace.samples in
      let label what = Printf.sprintf "%s, %d samples: %s" name n what in
      Alcotest.(check bool) (label "samples") true (same_bits got want);
      Alcotest.(check int64) (label "next draw") (Mathkit.Prng.bits64 g') (Mathkit.Prng.bits64 g))
    [
      ("half", half, 40_000); ("heavy", heavy, 300); ("half", half, 45_000); ("heavy", heavy, 45_000);
      ("half", half, 7); ("heavy", heavy, 40_000);
    ]

(* [apply_into] is [apply] written into the caller's array: [into] is
   asked once for the exact output length, the trace fills that prefix
   of a longer, reused buffer, nothing past it moves, and the draws
   are the same.  The source runs on past [len] with a huge sample and
   a nan, which would move the clip ceiling if the pass read them. *)
let test_fault_apply_into () =
  let buffer = Array.make 50_000 (-1.0) in
  List.iteri
    (fun k (name, cfg, n) ->
      let t = fault_trace n ~ties:(k mod 2 = 0) (n + k) in
      let src = Array.append t.Power.Ptrace.samples [| 1e9; nan |] in
      let g = Mathkit.Prng.create ~seed:(Int64.of_int (k + 7)) () in
      let g' = Mathkit.Prng.copy g in
      let want = (Power.Fault.apply ~rng:g' cfg t).Power.Ptrace.samples in
      let asked = ref [] in
      let into m =
        asked := m :: !asked;
        buffer
      in
      Array.fill buffer 0 (Array.length buffer) (-1.0);
      let out, m = Power.Fault.apply_into ~rng:g cfg src ~len:n ~into in
      let label what = Printf.sprintf "%s, %d samples: %s" name n what in
      Alcotest.(check (list int)) (label "into asked once, at the length") [ m ] !asked;
      Alcotest.(check bool) (label "the array into returned") true (out == buffer);
      Alcotest.(check bool) (label "samples") true (same_bits want (Array.sub buffer 0 m));
      Alcotest.(check bool) (label "tail untouched") true (Array.for_all (fun x -> x = -1.0) (Array.sub buffer m 100));
      Alcotest.(check int64) (label "next draw") (Mathkit.Prng.bits64 g') (Mathkit.Prng.bits64 g))
    [
      ("half", Power.Fault.of_intensity 0.5, 40_000);
      ("jitter and clip only", { Power.Fault.none with Power.Fault.trigger_jitter = 40; clip_fraction = 0.3 }, 3_000);
      ("heavy", Power.Fault.of_intensity 1.7, 300);
      ("half", Power.Fault.of_intensity 0.5, 0);
    ]

(* The first and last 16 noisy samples of one synthesized trace (a
   mul/div loop at 3 samples per cycle) and the next draw after it,
   recorded before the noise kernel and the shape table replaced the
   per-sample [Gaussian.normal] and [shape] calls. *)
let test_synthesize_known_answer () =
  let open Riscv in
  let a = Inst.a in
  let events =
    events_of_program
      [
        Asm.li (a 0) 0x5A; Asm.li (a 1) 3; Asm.li (a 2) 12; Asm.label "loop";
        Asm.ins (Inst.Mul (a 3, a 0, a 1)); Asm.ins (Inst.Div (a 4, a 3, a 2));
        Asm.ins (Inst.Add (a 0, a 0, a 4)); Asm.ins (Inst.Addi (a 2, a 2, -1));
        Asm.bne (a 2) Inst.x0 "loop"; Asm.halt;
      ]
  in
  let g = Mathkit.Prng.create ~seed:2025L () in
  let s =
    (Power.Synth.synthesize ~rng:g { Power.Synth.default with Power.Synth.samples_per_cycle = 3 } events)
      .Power.Ptrace.samples
  in
  let n = Array.length s in
  Alcotest.(check int) "samples" 1974 n;
  let bits off = Array.init 16 (fun i -> Int64.bits_of_float s.(off + i)) in
  Alcotest.(check (array int64)) "first 16"
    [|
      0x402B8D3957CBB8ACL; 0x402556BFA16C1311L; 0x4021B1BA9158250AL; 0x4024A7931B9B3B10L;
      0x402014327881BBB1L; 0x401980B3870ED98CL; 0x402483B8FD875F8DL; 0x401FEE184B18F2AAL;
      0x401AC198F23A4373L; 0x4029526AD06698F7L; 0x40242DF9B6051499L; 0x4021632CDB4667DBL;
      0x40247C26E67F245BL; 0x401F65EED4C54A6EL; 0x401B96FEBC4A9E31L; 0x40242FFC47B782A9L;
    |]
    (bits 0);
  Alcotest.(check (array int64)) "last 16"
    [|
      0x401C23AF4E002DE6L; 0x40223AD0D1B47AC5L; 0x401CB33ACE8BDAAFL; 0x4018E06D4DE7298CL;
      0x4021F2CF6E0A173DL; 0x401C8F015DB24107L; 0x401794B968F424B5L; 0x401F397D6F9A751AL;
      0x4018F5B0C4156D84L; 0x401453806B963488L; 0x401A95D27F03B712L; 0x40140711FC02199BL;
      0x401148EA0852F946L; 0x401A93BCBF8A24F9L; 0x4014A63EFFDD8020L; 0x401055F93DBEA9E1L;
    |]
    (bits (n - 16));
  Alcotest.(check int64) "next draw" 0xF85C947BC168796EL (Mathkit.Prng.bits64 g)

let suite =
  suite
  @ List.map
      (fun (name, f) -> Alcotest.test_case name `Quick f)
      [
        ("fault drift row = staged oracle", test_fault_drift_row);
        ("fault scratch reuse = staged oracle", test_fault_scratch_reuse);
        ("fault apply_into = apply, into a reused buffer", test_fault_apply_into);
        ("synth accumulator columns reused exactly", test_synth_accumulator_reuse);
        ("synthesize known answer", test_synthesize_known_answer);
      ]
