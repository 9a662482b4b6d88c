(* Campaign benchmark.

     campaign_bench --workload NAME --seed N --seconds S --trace 0|1 [--toy]

   With --trace 0 it prints the end-to-end metrics of an untraced run:
   setup repeated, and campaigns repeated for S seconds.  With --trace 1 it runs one untraced and one traced
   campaign on the same inputs and prints the per-layer metrics.  The
   last stdout line is one JSON object {correct, attempted, failed,
   metrics}.  A failed output check exits 1 naming the check, without
   a result line.  See README.md. *)

module Campaign = Reveal.Campaign

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let count name v = m name "count" (float_of_int v)

exception Check_failed of string

(* Generated archives (deleted at exit) and the traced run's span records. *)
let work_dir = ".campaign_bench"

let check name ok detail = if not ok then raise (Check_failed (Printf.sprintf "%s: %s" name detail))
let progress fmt = Printf.ksprintf (fun s -> prerr_endline ("campaign_bench: " ^ s)) fmt

(* Collect the garbage of earlier work before each timed setup and
   campaign, so that every repetition starts from the same heap: one
   repetition's garbage then neither slows the next nor adds to the
   peak resident set. *)
let settle () = Gc.full_major ()

(* The checks both runs make on a campaign outcome. *)
let check_outcome (spec : Workload.spec) (o : Workload.outcome) =
  if spec.fault = None then begin
    let signs = o.stats.Campaign.sign_correct and total = Workload.attempted spec in
    check "sign-recovery" (signs = total) (Printf.sprintf "%d of %d signs recovered" signs total);
    let mis = Campaign.confident_mismatches o.results in
    check "misgrades" (mis = 0) (Printf.sprintf "%d coefficients graded Confident with the wrong sign" mis);
    check "bikz-drop" (o.bikz_with < o.bikz_no)
      (Printf.sprintf "bikz with hints %.4f is not below bikz without %.4f" o.bikz_with o.bikz_no)
  end

let quality_metrics spec (o : Workload.outcome) =
  let attempted = Workload.attempted spec in
  [
    m "sound_frac" "fraction" (1.0 -. Workload.frac (Workload.failed spec o) attempted);
    m "sign_recovery" "fraction" (Workload.frac o.stats.Campaign.sign_correct attempted);
    m "value_accuracy" "fraction" (Workload.frac o.stats.Campaign.value_correct attempted);
  ]

(* --- untraced run: end-to-end metrics ------------------------------------------------ *)

(* Setups and identical campaigns alternate: after setup i of k,
   campaigns run until i/k of [seconds] has been measured, and at least
   three run in all.  The repetitions are thus spread over the whole
   run, so a stretch in which the machine runs slow touches fewer of
   them.  Each setup and campaign is scaled by the speed of the
   reference computation run on either side of it (see calib.ml), which
   cancels most of a slow stretch; campaign_s and setup_s are the
   medians of the scaled times. *)
let untraced ~seconds (inputs : Workload.inputs) =
  let spec = inputs.spec in
  let reference = Calib.create () in
  (* an item's result, its scaled and its unscaled wall-clock *)
  let timed f =
    settle ();
    let v, dt = Probe.time f in
    (v, Calib.scale reference dt, dt)
  in
  let setups = ref [] and reps = ref [] and last = ref None in
  let measured () = List.fold_left (fun acc (_, dt, _) -> acc +. dt) 0.0 !reps in
  for i = 1 to spec.setups do
    let env, scaled, dt = timed (fun () -> Workload.setup inputs) in
    setups := (scaled, dt) :: !setups;
    let target = seconds *. float_of_int i /. float_of_int spec.setups in
    while measured () < target || (i = spec.setups && List.length !reps < 3) do
      let o, scaled, dt = timed (fun () -> Workload.campaign env) in
      reps := (scaled, dt, Workload.digest o) :: !reps;
      last := Some o
    done
  done;
  check "reference" reference.Calib.ok "the reference computation gave another checksum";
  let setups = List.rev !setups and reps = List.rev !reps and last = Option.get !last in
  let times xs = String.concat " " (List.map (fun (scaled, dt) -> Printf.sprintf "%.3f/%.3f" dt scaled) xs) in
  progress "%s: %d setups, unscaled/scaled: %s s" spec.name spec.setups (times setups);
  progress "%s: %d campaigns, unscaled/scaled: %s s" spec.name (List.length reps)
    (times (List.map (fun (scaled, dt, _) -> (scaled, dt)) reps));
  progress "%s: %d reference runs: %s s" spec.name
    (List.length reference.Calib.times)
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") reference.Calib.times));
  let digests = List.sort_uniq compare (List.map (fun (_, _, d) -> d) reps) in
  check "digest-repeat" (List.length digests = 1)
    (Printf.sprintf "%d distinct results digests over %d repetitions" (List.length digests) (List.length reps));
  check_outcome spec last;
  let metrics =
    [
      m "campaign_s" "s" (Probe.median (List.map (fun (scaled, _, _) -> scaled) reps));
      m "setup_s" "s" (Probe.median (List.map fst setups));
      m "peak_rss_mb" "MiB" (Probe.peak_rss_mb ());
    ]
    @ quality_metrics spec last
  in
  let n = List.length reps in
  (metrics, List.hd digests, n * Workload.attempted spec, n * Workload.lost spec last)

(* --- traced run: per-layer metrics --------------------------------------------------- *)

let write_records path records =
  let sink = Obs.Sink.file path in
  Fun.protect ~finally:(fun () -> Obs.Sink.close sink) (fun () -> List.iter (Obs.Sink.emit sink) records)

let traced (inputs : Workload.inputs) =
  let spec = inputs.spec in
  (* the untraced reference: library setup and one campaign *)
  let env = Workload.setup inputs in
  settle ();
  let reference, untraced_s = Probe.time (fun () -> Workload.campaign env) in
  let reference_digest = Workload.digest reference in
  check_outcome spec reference;
  (* the traced run: stage-by-stage setup, then the campaign *)
  let sink, drain = Obs.Sink.memory () in
  let obs = Obs.Ctx.create ~source:("campaign_bench " ^ spec.name) ~sink () in
  let tr = Traced.create obs in
  let prof = Traced.setup tr inputs in
  check "traced-profile" (Traced.same_profile prof env.prof) "stage-by-stage profiling differs from Campaign's profile";
  (match spec.source with
  | Workload.Live ->
      check "acquisition-replica"
        (Traced.check_replica (Traced.machine env.device) ~traces:spec.traces inputs.seeds)
        "stage-by-stage acquisition differs from Device.run"
  | Replay -> ());
  settle ();
  let o = Traced.campaign tr env prof in
  Obs.Ctx.close obs;
  let records = drain () in
  write_records (Filename.concat work_dir (spec.name ^ "-spans.jsonl")) records;
  let digest = Workload.digest o in
  check "traced-digest" (digest = reference_digest)
    (Printf.sprintf "traced digest %s differs from untraced %s" digest reference_digest);
  let sp = Spans.analyse records in
  let s names = Spans.self sp names in
  let c = tr.Traced.c in
  let campaign_s = Spans.total sp "bench.campaign" in
  let confident, tentative, sign_only, unknown = Campaign.grade_counts o.results in
  let rescued =
    Array.fold_left (fun acc r -> match r.Campaign.recovery with Campaign.Retried _ -> acc + 1 | _ -> acc) 0 o.results
  in
  (* coefficients that went through the retry ladder: rescued, or
     still Unknown after their trace was re-measured *)
  let regraded = if c.retry_passes = 0 then 0 else rescued + unknown in
  let perfect, approximate, none = Hints.Hint.kind_counts o.hints in
  let traces = List.length c.trace_ms in
  let pct p = if traces = 0 then 0.0 else Probe.percentile c.trace_ms p in
  let metrics =
    [
      m "riscv.sim_s" "s" (s [ "riscv.sim" ]);
      count "riscv.instructions" c.instructions;
      m "riscv.minor_words" "words" c.riscv_words;
      m "power.synth_s" "s" (s [ "power.synth" ]);
      count "power.samples" c.samples;
      m "power.minor_words" "words" c.power_words;
      m "power.fault_s" "s" (s [ "power.fault" ]);
      m "traceio.decode_s" "s" (s [ "traceio.decode" ]);
      m "traceio.bytes" "bytes"
        (match spec.source with
        | Workload.Replay -> float_of_int (Traceio.Archive.file_size inputs.attack_archive)
        | Live -> 0.0);
      count "traceio.records" c.records;
      count "traceio.skipped" c.skipped;
      m "traceio.minor_words" "words" c.traceio_words;
      m "traceio.encode_s" "s" inputs.encode_s;
      m "sca.segment_s" "s" (s [ "sca.segment" ]);
      count "sca.windows" c.windows;
      count "sca.windows_resynced" c.resynced;
      count "sca.windows_suspect" c.suspect;
      count "sca.segment_errors" c.segment_errors;
      m "sca.segment_minor_words" "words" c.segment_words;
      m "sca.score_s" "s" (s [ "sca.score" ]);
      count "sca.windows_scored" c.scored;
      m "sca.score_minor_words" "words" c.score_words;
      m "sca.build_s" "s" (s [ "sca.build" ]);
      m "reveal.profile_acquire_s" "s" (s [ "reveal.profile_acquire" ]);
      m "reveal.profile_minor_words" "words" c.profile_words;
      m "reveal.profile_floor_s" "s" (s [ "reveal.profile_floor" ]);
      m "reveal.acquire_s" "s" (s [ "reveal.acquire"; "reveal.reacquire" ]);
      m "reveal.grade_s" "s" (s [ "reveal.grade" ]);
      m "reveal.tally_s" "s" (s [ "reveal.tally" ]);
      count "reveal.retry_passes" c.retry_passes;
      count "reveal.rescued" rescued;
      m "reveal.retry_yield" "fraction" (Workload.frac rescued regraded);
      m "reveal.reacquire_s" "s" (Spans.total sp "reveal.reacquire");
      count "reveal.grade_confident" confident;
      count "reveal.grade_tentative" tentative;
      count "reveal.grade_sign_only" sign_only;
      count "reveal.grade_unknown" unknown;
      count "reveal.misgrades" (Campaign.confident_mismatches o.results);
      count "reveal.traces" traces;
      m "reveal.trace_ms_p50" "ms" (pct 50.0);
      m "reveal.trace_ms_p90" "ms" (pct 90.0);
      m "hints.integrate_s" "s" (s [ "hints.integrate" ]);
      m "hints.estimate_s" "s" (s [ "hints.estimate" ]);
      count "hints.perfect" perfect;
      count "hints.approximate" approximate;
      count "hints.none" none;
      m "hints.bikz_no_hints" "bikz" o.bikz_no;
      m "hints.bikz_with_hints" "bikz" o.bikz_with;
      count "mathkit.domains" (Mathkit.Parallel.recommended_domains ());
      m "trace.unattributed_frac" "fraction" (s [ "bench.campaign" ] /. campaign_s);
      m "trace.overhead_frac" "fraction" ((campaign_s -. untraced_s) /. untraced_s);
    ]
  in
  (metrics, digest, Workload.attempted spec, Workload.lost spec o)

(* --- command line --------------------------------------------------------------------- *)

let json_result ~attempted ~failed metrics =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool true);
      ("attempted", Obs.Json.Int attempted);
      ("failed", Obs.Json.Int failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun x -> (x.name, Obs.Json.Obj [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.String x.unit) ]))
             metrics) );
    ]

let usage = "campaign_bench --workload NAME --seed N --seconds S --trace 0|1 [--toy]"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let toy = ref false in
  let spec_list =
    [
      ("--workload", Arg.Set_string workload, "NAME live-paper, replay-1024 or faulted-256");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S campaign time to measure (untraced run)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--toy", Arg.Set toy, " toy sizes (n = 64), for the benchmark's own tests");
    ]
  in
  let fail_usage msg =
    Printf.eprintf "campaign_bench: %s\nusage: %s\n" msg usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec_list (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> fail_usage (String.trim msg));
  let spec =
    match Workload.find ~toy:!toy !workload with
    | Some s -> s
    | None -> fail_usage (Printf.sprintf "unknown workload %S" !workload)
  in
  let seed = match !seed with Some s -> s | None -> fail_usage "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let inputs = Workload.generate ~work_dir spec seed in
  match
    Fun.protect
      ~finally:(fun () -> Workload.remove_archives inputs)
      (fun () -> if !trace = 0 then untraced ~seconds:!seconds inputs else traced inputs)
  with
  | metrics, digest, attempted, failed ->
      List.iter (fun x -> Printf.printf "%-28s %16.6f %s\n" x.name x.value x.unit) metrics;
      Printf.printf "digest %s\n" digest;
      Obs.Json.print (json_result ~attempted ~failed metrics)
  | exception Check_failed what ->
      Printf.eprintf "campaign_bench: check failed: %s\n" what;
      exit 1
