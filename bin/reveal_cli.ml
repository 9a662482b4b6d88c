(* reveal — command-line front end.

   Every stage of the paper's pipeline, every artefact of its
   evaluation and the campaign tooling around them is one entry of the
   subcommand table at the bottom of this file.  [cmd] gives each entry
   --json (one JSON value on stdout, progress chatter suppressed, same
   exit codes) and the --obs-* flags unless the entry overrides them,
   and runs its body inside [run], which applies one exit-code policy
   to every subcommand:

     0  success
     1  the attack or a requested check failed (recovery below
        threshold, sweep invariant violated, a shard exhausted its
        retry budget)
     2  usage error (bad arguments, impossible configuration)
     3  I/O error or corrupt input (archive, profile cache, shard
        result file, unwritable output) *)

open Cmdliner

(* --- the run wrapper ------------------------------------------------------ *)

exception Exit_code of int

(* End the subcommand with [code], after [reveal: <message>] on stderr. *)
let fail code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("reveal: " ^ msg);
      raise (Exit_code code))
    fmt

type obs_flags = { out : string option; clock : Obs.Clock.kind; stream : string option; source : string option }

(* The --obs-stream sink: a live fabric connection when DEST parses as
   an endpoint, else a plain file carrying the same framed stream.
   Events ride a bounded queue to a background sender, so a slow or
   dead monitor never stalls the pipeline (drops are counted). *)
let stream_sink dest =
  let framed oc close_channel =
    let sender = Traceio.Wire.create_telemetry_sender ~peer:dest oc in
    Obs.Sink.stream
      ~send:(Traceio.Wire.telemetry_send sender)
      ~close:(fun () ->
        Traceio.Wire.telemetry_finish sender;
        close_channel ())
      ()
  in
  try
    match Fabric.Transport.parse dest with
    | Ok ep ->
        let conn = Fabric.Transport.connect ~retries:8 ep in
        framed conn.Fabric.Transport.oc (fun () -> Fabric.Transport.close_connection conn)
    | Error _ ->
        let oc = open_out_bin dest in
        framed oc (fun () -> close_out oc)
  with
  | Sys_error msg -> failwith ("--obs-stream: " ^ msg)
  | (Traceio.Error.Io _ | Traceio.Error.Corrupt _) as e -> failwith ("--obs-stream: " ^ Traceio.Error.to_string e)

(* Without --obs-out or --obs-stream the disabled context makes every
   probe a no-op; with either, the whole body runs inside a
   [cli.<name>] span and the final metrics record is flushed however
   the body ends (close is idempotent; the at_exit flush covers
   trial's SIGTERM exit).  With both, the file and the stream are
   tee'd under one lock and carry the identical line sequence — the
   monitor's end-of-run summary is bit-identical to [obs merge] over
   the files. *)
let with_obs name { out; clock; stream; source } body =
  if out = None && stream = None then body Obs.Ctx.disabled
  else begin
    let file = Option.map Obs.Sink.file out in
    let streaming = Option.map stream_sink stream in
    let sink =
      match (file, streaming) with
      | Some a, Some (b, _) -> Obs.Sink.tee a b
      | Some a, None | None, Some (a, _) -> a
      | None, None -> assert false
    in
    let clock = match clock with Obs.Clock.Wall -> Obs.Clock.wall () | Obs.Clock.Logical -> Obs.Clock.logical () in
    let obs = Obs.Ctx.create ?source ~clock ~sink () in
    at_exit (fun () -> Obs.Ctx.close obs);
    Fun.protect
      ~finally:(fun () ->
        Obs.Ctx.close obs;
        match streaming with
        | Some (_, drops) ->
            let d = drops () in
            if d > 0 then Printf.eprintf "reveal: obs stream: %d event(s) dropped\n" d
        | None -> ())
      (fun () -> Obs.Ctx.span obs ("cli." ^ name) (fun () -> body obs))
  end

(* The exit-code policy of the header, in one place: subcommand bodies
   [fail] or raise, and never call [exit] themselves. *)
let run name obs body =
  let error code msg =
    prerr_endline ("reveal: " ^ msg);
    code
  in
  match with_obs name obs body with
  | () -> 0
  | exception Exit_code code -> code
  | exception ((Traceio.Error.Corrupt _ | Traceio.Error.Io _) as e) -> error 3 (Traceio.Error.to_string e)
  | exception (Failure msg | Sys_error msg) -> error 3 msg
  | exception Invalid_argument msg -> error 2 msg

(* --- shared flags ------------------------------------------------------- *)

let opt_string names ~docv doc = Arg.(value & opt (some string) None & info names ~docv ~doc)
let flag names doc = Arg.(value & flag & info names ~doc)
let json_arg = flag [ "json" ] "Emit one machine-readable JSON value on stdout instead of the human-readable report."

let obs_args =
  let out =
    opt_string [ "obs-out" ] ~docv:"FILE"
      "Write a structured observability trace (JSON Lines: spans, events, final metrics) to $(docv); summarize it \
       with $(b,reveal obs summarize)."
  in
  let clock =
    let doc =
      "Observability clock: $(b,wall) (monotonic seconds) or $(b,logical) (deterministic ticks, for reproducible \
       traces)."
    in
    Arg.(
      value
      & opt (enum [ ("wall", Obs.Clock.Wall); ("logical", Obs.Clock.Logical) ]) Obs.Clock.Wall
      & info [ "obs-clock" ] ~docv:"CLOCK" ~doc)
  in
  let stream =
    opt_string [ "obs-stream" ] ~docv:"DEST"
      "Stream the observability trace live as CRC-framed telemetry to $(docv) — a fabric endpoint (\"unix:PATH\" or \
       \"tcp:HOST:PORT\", attach $(b,reveal monitor --listen) there first) or a plain file path, replayable with \
       $(b,reveal monitor FILE). Combines with $(b,--obs-out): both carry the identical event sequence."
  in
  Term.(const (fun out clock stream -> { out; clock; stream; source = None }) $ out $ clock $ stream)

(* One subcommand-table entry: [term] parses the subcommand's own flags
   into a body that takes --json and the obs context. *)
let cmd ?(json = json_arg) ?(obs = obs_args) name ?man doc term =
  let entry body json obs = run name obs (body json) in
  Cmd.v (Cmd.info name ~doc ?man) Term.(const entry $ term $ json $ obs)

let seed_arg =
  let doc = "PRNG seed (all randomness is explicit and reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg default =
  let doc = "Number of coefficients the firmware samples per run." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let variant_arg =
  let doc = "Sampler variant: v32 (vulnerable), v36 (branchless), shuffled or cdt (constant-time CDT)." in
  Arg.(
    value
    & opt (enum Triage.Plan.variant_names) Riscv.Sampler_prog.Vulnerable
    & info [ "variant" ] ~docv:"VARIANT" ~doc)

let per_value_arg default =
  Arg.(value & opt int default & info [ "per-value" ] ~docv:"K" ~doc:"Profiling windows per value.")

let traces_arg default doc = Arg.(value & opt int default & info [ "traces" ] ~docv:"T" ~doc)
let verbose_arg = flag [ "v"; "verbose" ]
let archive_arg doc = Arg.(required & pos 0 (some string) None & info [] ~docv:"ARCHIVE" ~doc)
let check_arg = flag [ "check" ]
let rng_of_seed seed = Mathkit.Prng.create ~seed:(Int64.of_int seed) ()

(* report and fault-sweep: the campaign an experiment runs. *)
let experiment_config ~n ~per_value ~traces ~traces_doc =
  Term.(
    ret
      (const (fun seed device_n per_value attack_traces ->
           if attack_traces < 1 then `Error (false, "traces must be positive")
           else `Ok { Reveal.Experiment.seed = Int64.of_int seed; device_n; per_value; attack_traces })
      $ seed_arg $ n_arg n $ per_value_arg per_value $ traces_arg traces traces_doc))

(* attack and replay-attack: the templates to attack with — the cached
   --profile, else fresh ones built on [device ()]. *)
let load_or_profile =
  let cached = opt_string [ "profile" ] ~docv:"FILE" "Use a cached profile (see the profile command)." in
  let load cached per_value ~json ~obs ~what device rng =
    match cached with
    | Some path ->
        if not json then Printf.printf "loading cached profile from %s\n%!" path;
        Reveal.Campaign.load_profile path
    | None ->
        if not json then Printf.printf "%s (%d windows per candidate value)...\n%!" what per_value;
        Reveal.Campaign.profile ~per_value ~obs (device ()) rng
  in
  Term.(const load $ cached $ per_value_arg 300)

let print_coefficients results =
  Array.iteri
    (fun i r ->
      let actual = r.Reveal.Campaign.actual and value = r.Reveal.Campaign.verdict.Sca.Attack.value in
      Printf.printf "coeff %4d: actual %3d -> recovered %3d %s\n" i actual value (if actual = value then "" else "x"))
    results

let coefficients_json results =
  let coefficient i r =
    let v = r.Reveal.Campaign.verdict in
    Obs.Json.(
      Obj
        [
          ("index", Int i); ("actual", Int r.Reveal.Campaign.actual); ("recovered", Int v.Sca.Attack.value);
          ("sign", Int v.Sca.Attack.sign);
        ])
  in
  ("coefficients", Obs.Json.List (Array.to_list (Array.mapi coefficient results)))

(* --- disasm / trace ------------------------------------------------------ *)

let disasm variant n json _obs =
  let prog = Riscv.Sampler_prog.build ~variant ~n ~k:1 () in
  if json then
    Obs.Json.(
      print
        (Obj
           [
             ("variant", String (Traceio.Archive.variant_name variant)); ("n", Int n);
             ("instructions", Int (Array.length prog.Riscv.Asm.words));
             ("listing", List (List.map (fun l -> String l) prog.Riscv.Asm.listing));
           ]))
  else begin
    List.iter print_endline prog.Riscv.Asm.listing;
    Printf.printf "; %d instructions\n" (Array.length prog.Riscv.Asm.words)
  end

let trace seed variant n csv json _obs =
  let rng = rng_of_seed seed in
  let device = Reveal.Device.create ~variant ~n () in
  let run =
    if variant = Riscv.Sampler_prog.Shuffled then begin
      let perm = Array.init n (fun i -> i) in
      Mathkit.Prng.shuffle rng perm;
      Reveal.Device.run_shuffled device ~scope_rng:rng ~sampler_rng:rng ~perm
    end
    else Reveal.Device.run_gaussian device ~scope_rng:rng ~sampler_rng:rng
  in
  let trace = run.Reveal.Device.trace in
  let bursts = Sca.Segment.burst_regions_fv Sca.Segment.default (Mathkit.Fvec.of_array trace.Power.Ptrace.samples) in
  if json then begin
    Option.iter (fun path -> Power.Ptrace.save_csv path trace) csv;
    Obs.Json.(
      print
        (Obj
           ([
              ("noises", List (Array.to_list (Array.map (fun v -> Int v) run.Reveal.Device.noises)));
              ("samples", Int (Power.Ptrace.length trace));
              ("peaks", Int (Array.length bursts));
            ]
           @ match csv with Some path -> [ ("csv", String path) ] | None -> [])))
  end
  else begin
    Printf.printf "sampled noises: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int run.Reveal.Device.noises)));
    (match csv with
    | Some path ->
        Power.Ptrace.save_csv path trace;
        Printf.printf "trace written to %s (%d samples)\n" path (Power.Ptrace.length trace)
    | None -> print_string (Power.Ptrace.ascii_plot ~height:16 trace.Power.Ptrace.samples));
    Printf.printf "%d distribution-call peaks detected\n" (Array.length bursts)
  end

(* --- profile / attack / record / replay-attack / inspect ---------------- *)

let profile seed n per_value out json obs =
  let device = Reveal.Device.create ~n () in
  if not json then Printf.printf "profiling (%d windows per candidate value, n = %d)...\n%!" per_value n;
  let prof = Reveal.Campaign.profile ~per_value ~obs device (rng_of_seed seed) in
  Reveal.Campaign.save_profile out prof;
  if json then
    Obs.Json.(
      print
        (Obj
           [
             ("out", String out); ("n", Int n); ("per_value", Int per_value);
             ("window_length", Int prof.Reveal.Campaign.window_length); ("sigma", Float prof.Reveal.Campaign.sigma);
           ]))
  else Printf.printf "profile saved to %s (window length %d)\n" out prof.Reveal.Campaign.window_length

let attack seed n load_or_profile verbose json obs =
  let rng = rng_of_seed seed in
  let device = Reveal.Device.create ~n () in
  let prof = load_or_profile ~json ~obs ~what:"profiling" (fun () -> device) rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let run = Reveal.Device.run_gaussian device ~scope_rng ~sampler_rng in
  let results = Reveal.Campaign.attack_trace prof run in
  let count p = Array.fold_left (fun k r -> if p r then k + 1 else k) 0 results in
  let sign_ok = count (fun r -> compare r.Reveal.Campaign.actual 0 = r.Reveal.Campaign.verdict.Sca.Attack.sign) in
  let value_ok = count (fun r -> r.Reveal.Campaign.actual = r.Reveal.Campaign.verdict.Sca.Attack.value) in
  if json then
    Obs.Json.(
      print
        (Obj
           ([ ("n", Int n); ("sign_correct", Int sign_ok); ("value_correct", Int value_ok) ]
           @ if verbose then [ coefficients_json results ] else [])))
  else begin
    if verbose then print_coefficients results;
    Printf.printf "single-trace attack over %d coefficients: signs %d/%d, values %d/%d\n" n sign_ok n value_ok n
  end

(* The rng derivation (create, split scope, split sampler) matches the
   attack command exactly, so `record --seed S --traces 1` captures the
   very trace `attack --seed S --profile …` attacks live. *)
let record seed variant n traces out json obs =
  let rng = rng_of_seed seed in
  let device = Reveal.Device.create ~variant ~n () in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  Reveal.Device.record ~obs device ~path:out ~seed:(Int64.of_int seed) ~traces ~scope_rng ~sampler_rng;
  let variant = Traceio.Archive.variant_name variant and bytes = Traceio.Archive.file_size out in
  if json then
    Obs.Json.(
      print
        (Obj
           [
             ("out", String out); ("traces", Int traces); ("n", Int n); ("variant", String variant);
             ("bytes", Int bytes);
           ]))
  else Printf.printf "recorded %d traces (n = %d, %s) to %s (%d bytes)\n" traces n variant out bytes

let replay_attack archive load_or_profile profile_seed strict min_values verbose json obs =
  let header = Traceio.Archive.with_reader archive Traceio.Archive.header in
  let n = header.Traceio.Archive.n in
  if not json then
    Printf.printf "archive %s: %d traces, n = %d, %s, seed %Ld\n" archive header.Traceio.Archive.trace_count n
      (Traceio.Archive.variant_name header.Traceio.Archive.variant)
      header.Traceio.Archive.seed;
  (* profile on a clone device matching the archive's header *)
  let prof =
    load_or_profile ~json ~obs ~what:"profiling clone device"
      (fun () -> Reveal.Device.of_header header)
      (rng_of_seed profile_seed)
  in
  let stats, results = Reveal.Campaign.attack_archive ~strict ~obs prof archive in
  (* With an enabled obs context, carry the campaign all the way to the
     sink so the trace records the final graded-hint and bikz metrics
     too. *)
  if Obs.Ctx.enabled obs && Array.length results > 0 then begin
    let hints =
      Reveal.Sink.hints_of_results results (Array.length results) (fun i r ->
          Reveal.Campaign.hint_of_result ~sigma:prof.Reveal.Campaign.sigma ~coordinate:i r)
    in
    ignore (Reveal.Sink.security_of_hints ~obs hints)
  end;
  let open Reveal.Campaign in
  let replayed = header.Traceio.Archive.trace_count - stats.corrupt_skipped in
  let value_rate =
    if stats.value_total = 0 then 0.0 else float_of_int stats.value_correct /. float_of_int stats.value_total
  in
  if json then
    Obs.Json.(
      print
        (Obj
           ([
              ("archive", String archive); ("replayed", Int replayed); ("n", Int n);
              ("sign_correct", Int stats.sign_correct); ("sign_total", Int stats.sign_total);
              ("value_correct", Int stats.value_correct); ("value_total", Int stats.value_total);
              ("out_of_range", Int stats.skipped_out_of_range); ("corrupt_skipped", Int stats.corrupt_skipped);
              ("value_rate", Float value_rate);
            ]
           @ if verbose then [ coefficients_json results ] else [])))
  else begin
    if verbose then print_coefficients results;
    Printf.printf
      "replayed attack over %d traces x %d coefficients: signs %d/%d, values %d/%d (%d out of template range)\n"
      replayed n stats.sign_correct stats.sign_total stats.value_correct stats.value_total stats.skipped_out_of_range;
    if stats.corrupt_skipped > 0 then Printf.printf "%d corrupt record(s) skipped mid-stream\n" stats.corrupt_skipped
  end;
  if value_rate < min_values then fail 1 "value recovery rate %.3f below required %.3f" value_rate min_values

let inspect path show_records json obs =
  let size = Traceio.Archive.file_size path in
  Traceio.Archive.with_reader ~obs path @@ fun reader ->
  let h = Traceio.Archive.header reader in
  let open Traceio.Archive in
  if not json then begin
    Printf.printf "%s: reveal trace archive (format v%d), %d bytes\n" path version size;
    Printf.printf "  variant            %s\n" (variant_name h.variant);
    Printf.printf "  coefficients/run   %d\n" h.n;
    Printf.printf "  campaign seed      %Ld\n" h.seed;
    Printf.printf "  samples/cycle      %d\n" h.samples_per_cycle;
    Printf.printf "  scope noise sigma  %.4f\n" h.noise_sigma;
    Printf.printf "  traces             %d\n" h.trace_count;
    List.iter (fun (k, v) -> Printf.printf "  meta %-18s %s\n" k v) h.meta
  end;
  let total_samples = ref 0 and rows = ref [] in
  let rec loop () =
    match next reader with
    | None -> ()
    | Some r ->
        let len = Mathkit.Fvec.length r.samples in
        let mean = Mathkit.Stats.mean_a (Mathkit.Fvec.to_array r.samples) in
        total_samples := !total_samples + len;
        if show_records then
          if json then
            rows := Obs.Json.(Obj [ ("index", Int r.index); ("samples", Int len); ("mean_power", Float mean) ]) :: !rows
          else Printf.printf "  record %4d: %6d samples, mean power %8.2f\n" r.index len mean;
        loop ()
  in
  loop ();
  if json then
    Obs.Json.(
      print
        (Obj
           ([
              ("path", String path); ("bytes", Int size); ("variant", String (variant_name h.variant)); ("n", Int h.n);
              ("seed", String (Int64.to_string h.seed)); ("samples_per_cycle", Int h.samples_per_cycle);
              ("noise_sigma", Float h.noise_sigma); ("traces", Int h.trace_count);
              ("meta", Obj (List.map (fun (k, v) -> (k, String v)) h.meta));
              ("total_samples", Int !total_samples); ("checksums_verified", Bool true);
            ]
           @ if show_records then [ ("records", List (List.rev !rows)) ] else [])))
  else begin
    Printf.printf "all %d record checksums verified\n" h.trace_count;
    Printf.printf "%d samples total\n" !total_samples
  end

(* --- fault-sweep / lint / srclint / estimate / report ------------------- *)

(* The --check verdict, computed once: the sweep's invariants first,
   and only when they hold, zero intensity against the clean pipeline. *)
type sweep_check = Unchecked | Invariants_violated of string | Zero_checked of Reveal.Experiment.zero_consistency

let fault_sweep config intensities check json _obs =
  let rows = Reveal.Experiment.fault_sweep ?intensities:(Option.map Array.of_list intensities) config in
  let verdict =
    if not check then Unchecked
    else
      match Reveal.Experiment.fault_sweep_check rows with
      | Error msg -> Invariants_violated msg
      | Ok () -> Zero_checked (Reveal.Experiment.fault_zero_consistency config)
  in
  let failure =
    match verdict with
    | Invariants_violated msg -> Some ("fault sweep violates invariants:\n" ^ msg)
    | Zero_checked zc
      when zc.Reveal.Experiment.verdict_mismatches > 0
           || zc.Reveal.Experiment.grade_downgrades > 0
           || zc.Reveal.Experiment.bikz_ungated <> zc.Reveal.Experiment.bikz_graded ->
        Some "zero-intensity pipeline diverges from the clean attack"
    | _ -> None
  in
  if json then begin
    Option.iter (fail 1 "%s") failure;
    Obs.Json.(
      print
        (Obj
           (("rows", (Reveal.Experiment.fault_sweep_doc rows).json)
           ::
           (match verdict with
           | Zero_checked zc ->
               [ ("invariants_ok", Bool true); ("zero_consistency", (Reveal.Experiment.zero_consistency_doc zc).json) ]
           | _ -> []))))
  end
  else begin
    print_string (Reveal.Experiment.fault_sweep_doc rows).text;
    (match verdict with
    | Zero_checked zc ->
        print_endline "sweep invariants hold: recovery monotone, bikz never under-reported";
        print_string (Reveal.Experiment.zero_consistency_doc zc).text
    | _ -> ());
    Option.iter (fail 1 "%s") failure;
    if check then print_endline "zero-intensity attack is bit-identical to the clean pipeline"
  end

(* The verdict of both linters.  With --check it is drift against the
   expect table, without it the findings themselves; either way a
   failing verdict exits 1. *)
let lint_verdict ~json ~check ~ok_line ~what drift ok =
  if not json then begin
    if check && ok then print_endline ok_line;
    List.iter (fun d -> Printf.eprintf "reveal: %s: %s\n" what d) drift
  end;
  if not ok then raise (Exit_code 1)

let lint variant n k no_confirm check verbose json _obs =
  if n <= 0 || k <= 0 then invalid_arg "lint: n and k must be positive";
  let report = Ctcheck.Lint.analyze_variant ~n ~k ~confirm:(not no_confirm) variant in
  let violations = Ctcheck.Lint.violations report in
  let drift = if check then Ctcheck.Lint.check report else [] in
  let ok = if check then drift = [] else violations = [] in
  let findings = report.Ctcheck.Lint.findings in
  if json then
    Obs.Json.(
      print
        (Obj
           [
             ("variant", String (Traceio.Archive.variant_name variant));
             ("findings", List (List.map (fun f -> Ctcheck.Render.to_json (Ctcheck.Finding.to_row f)) findings));
             ("violations", Int (List.length violations));
             ("confirmed", Int (List.length (List.filter Ctcheck.Finding.is_confirmed findings)));
             ("drift", List (List.map (fun d -> String d) drift));
             ("ok", Bool ok);
           ]))
  else print_string (Ctcheck.Lint.render ~verbose report);
  lint_verdict ~json ~check ~ok_line:"verdict table check: OK" ~what:"verdict drift" drift ok

let srclint paths check json _obs =
  let paths = if paths = [] then [ "lib"; "bin"; "bench"; "tools"; "campaign_bench"; "examples" ] else paths in
  match Srclint.Driver.lint_paths paths with
  | Error msg -> fail 2 "srclint: %s" msg
  | Ok report ->
      let drift = if check then Srclint.Driver.drift report else [] in
      let ok = if check then drift = [] else Srclint.Driver.clean report in
      if json then Obs.Json.print (Srclint.Driver.to_json report ~drift ~ok)
      else print_string (Srclint.Driver.render report);
      lint_verdict ~json ~check ~ok_line:"expect table check: OK" ~what:"srclint drift" drift ok

let estimate perfect sign_only json _obs =
  if perfect < 0 then fail 2 "estimate: --perfect must be non-negative";
  let lwe = Hints.Lwe.seal_128_1024 in
  let d = Hints.Dbdd.create lwe in
  let bikz0 = Hints.Dbdd.estimate_bikz d in
  let say fmt = Printf.ksprintf (fun s -> if not json then print_string s) fmt in
  let bits = Hints.Bkz_model.security_bits in
  say "SEAL-128 (q=%d, n=%d): %.2f bikz (~2^%.1f) without hints\n" lwe.Hints.Lwe.q lwe.Hints.Lwe.n bikz0 (bits bikz0);
  let hints =
    if sign_only then begin
      let sigma = lwe.Hints.Lwe.sigma_error in
      let p0 = Mathkit.Gaussian.discrete_probability ~sigma 0 in
      let zeros = int_of_float (Float.round (p0 *. float_of_int lwe.Hints.Lwe.m)) in
      let hv = sigma *. sigma *. (1.0 -. (2.0 /. Float.pi)) in
      for i = 0 to lwe.Hints.Lwe.m - 1 do
        if i < zeros then Hints.Dbdd.perfect_hint d i else Hints.Dbdd.posterior_hint d i ~posterior_variance:hv
      done;
      say "with sign/zero hints on all %d error coordinates: %.2f bikz (~2^%.1f)\n" lwe.Hints.Lwe.m
        (Hints.Dbdd.estimate_bikz d)
        (bits (Hints.Dbdd.estimate_bikz d));
      lwe.Hints.Lwe.m
    end
    else begin
      let k = min perfect lwe.Hints.Lwe.m in
      for i = 0 to k - 1 do
        Hints.Dbdd.perfect_hint d i
      done;
      say "with %d perfect error hints: %.2f bikz (~2^%.1f)\n" k (Hints.Dbdd.estimate_bikz d)
        (bits (Hints.Dbdd.estimate_bikz d));
      k
    end
  in
  let bikz1 = Hints.Dbdd.estimate_bikz d in
  let costs = Hints.Bkz_model.cost_summary bikz1 in
  if json then
    Obs.Json.(
      print
        (Obj
           [
             ("q", Int lwe.Hints.Lwe.q); ("n", Int lwe.Hints.Lwe.n);
             ("mode", String (if sign_only then "sign-only" else "perfect")); ("hints", Int hints);
             ("bikz_no_hints", Float bikz0); ("bits_no_hints", Float (bits bikz0));
             ("bikz_with_hints", Float bikz1); ("bits_with_hints", Float (bits bikz1));
             ("cost_models", Obj (List.map (fun (label, b) -> (label, Float b)) costs));
           ]))
  else begin
    print_endline "cost-model conversions of the final block size:";
    List.iter (fun (label, b) -> Printf.printf "  %-30s %7.1f bits\n" label b) costs
  end

let report name list_only config json _obs =
  if list_only then List.iter print_endline Reveal.Experiment.artefact_names
  else
    match name with
    | None -> fail 2 "report: missing ARTEFACT argument (use --list for the available names)"
    | Some name -> (
        match Reveal.Experiment.artefact name config with
        | Some doc -> if json then Obs.Json.print doc.Reveal.Report.json else print_string doc.Reveal.Report.text
        | None -> fail 2 "report: unknown artefact %s (use --list for the available names)" name)

(* --- worker / shard: the distributed campaign fabric -------------------- *)

(* Both the in-process (workers = 1) path and every worker process
   derive their acquisition randomness the same way — a fresh
   generator from the campaign seed, split into scope and sampler
   streams — and [device_live_range] draws the full campaign's seed
   table whatever slice it serves.  Partitioning therefore cannot
   reach the per-trace randomness, which is the first half of the
   determinism argument (DESIGN.md section 13); [Fabric.Shard.merge]
   is the second. *)
let shard_source device ~seed ~traces ~lo ~hi =
  let rng = rng_of_seed seed in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  Reveal.Source.device_live_range device ~traces ~lo ~hi ~scope_rng ~sampler_rng

let worker seed n traces lo hi shard_id profile_path out sabotage _json obs =
  if traces <= 0 then invalid_arg "worker: traces must be positive";
  if lo < 0 || hi < lo || hi > traces then
    invalid_arg (Printf.sprintf "worker: shard range [%d,%d) does not fit a %d-trace campaign" lo hi traces);
  let prof = Reveal.Campaign.load_profile profile_path in
  let device = Reveal.Device.create ~n () in
  let source = shard_source device ~seed ~traces ~lo ~hi in
  let stats, results = Reveal.Campaign.run_source ~obs ~expected:((hi - lo) * n) prof source in
  Fabric.Shard.save out
    {
      Fabric.Shard.shard = shard_id;
      range = { Fabric.Shard.lo; hi };
      corrupt_skipped = stats.Reveal.Campaign.corrupt_skipped;
      results;
    };
  if sabotage then begin
    (* test aid: leave a truncated result behind and die the way a
       crashed worker would, so the orchestrator's retry path can be
       exercised from the command line *)
    let size = (Unix.stat out).Unix.st_size in
    Unix.truncate out (max 1 (size / 2));
    Unix.kill (Unix.getpid ()) Sys.sigkill
  end;
  Printf.printf "worker: shard %d wrote %d results ([%d,%d) of %d traces) to %s\n" shard_id (Array.length results) lo
    hi traces out

let mkdir_p d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let shard seed n per_value traces workers retries timeout work_dir sabotage obs_dir telemetry json obs =
  if traces <= 0 then invalid_arg "shard: traces must be positive";
  if workers <= 0 then invalid_arg "shard: workers must be positive";
  if retries < 0 then invalid_arg "shard: retries must be non-negative";
  if Option.fold ~none:false ~some:(fun t -> t <= 0.0) timeout then invalid_arg "shard: timeout must be positive";
  (* Progress goes to stderr: stdout carries only campaign-level
     results, byte-identical whatever the worker count. *)
  let chatter fmt = Printf.ksprintf (fun s -> prerr_endline ("shard: " ^ s)) fmt in
  (* A work dir this run creates is removed only on success: any
     failure keeps it, with the per-attempt logs its failure records
     point at. *)
  let owned, wd =
    match work_dir with
    | Some d ->
        mkdir_p d;
        (false, d)
    | None -> (true, Fabric.Orchestrator.fresh_work_dir ())
  in
  Option.iter mkdir_p obs_dir;
  chatter "profiling (%d windows per candidate value, n = %d)" per_value n;
  let device = Reveal.Device.create ~n () in
  let built = Reveal.Campaign.profile ~per_value ~obs device (rng_of_seed seed) in
  let profile_path = Filename.concat wd "profile.bin" in
  Reveal.Campaign.save_profile profile_path built;
  (* Attack with the decoded cache in both paths, so the template
     floats in play are byte-identical whether a worker loaded the file
     or we never left this process. *)
  let prof = Reveal.Campaign.load_profile profile_path in
  let stats, results =
    if workers = 1 then begin
      if obs_dir <> None then chatter "note: --obs-dir collects worker traces; with 1 worker none are spawned";
      if telemetry <> None then chatter "note: --telemetry streams worker traces; with 1 worker none are spawned";
      chatter "single worker: running the campaign in-process";
      Reveal.Campaign.run_source ~obs prof (shard_source device ~seed ~traces ~lo:0 ~hi:traces)
    end
    else begin
      (* both obs destinations share one logical-clock context, which
         the worker names shard-<id> after its --shard-id, so a live
         monitor's merge and [obs merge] over the files fold the same
         streams *)
      let obs_flags shard =
        match
          (match obs_dir with
          | Some dir -> [ "--obs-out"; Filename.concat dir (Printf.sprintf "shard-%d.jsonl" shard) ]
          | None -> [])
          @ match telemetry with Some dest -> [ "--obs-stream"; dest ] | None -> []
        with
        | [] -> []
        | flags -> flags @ [ "--obs-clock"; "logical" ]
      in
      let command ~shard ~attempt ~range ~out ~log:_ =
        Array.of_list
          ([ Sys.executable_name; "worker"; "--seed"; string_of_int seed; "-n"; string_of_int n ]
          @ [ "--traces"; string_of_int traces; "--shard-id"; string_of_int shard ]
          @ [ "--shard-lo"; string_of_int range.Fabric.Shard.lo; "--shard-hi"; string_of_int range.Fabric.Shard.hi ]
          @ [ "--profile"; profile_path; "--out"; out ]
          @ obs_flags shard
          @ if sabotage = Some shard && attempt = 0 then [ "--sabotage" ] else [])
      in
      let config =
        { Fabric.Orchestrator.max_inflight = workers; retries; timeout_s = timeout; work_dir = wd; command }
      in
      chatter "dispatching %d workers over %d traces (work dir %s)" workers traces wd;
      match Fabric.Orchestrator.run config ~plan:(Fabric.Shard.plan ~traces ~workers) with
      | Error failures ->
          List.iter (fun f -> prerr_endline ("reveal: " ^ Fabric.Orchestrator.describe_failure f)) failures;
          fail 1 "shard: a shard exhausted its retry budget; work dir kept at %s" wd
      | Ok report -> (
          List.iter
            (fun f -> chatter "recovered: %s" (Fabric.Orchestrator.describe_failure f))
            report.Fabric.Orchestrator.failures;
          if report.Fabric.Orchestrator.retried > 0 then
            chatter "%d shard(s) needed more than one attempt" report.Fabric.Orchestrator.retried;
          match Fabric.Shard.merge prof (Array.to_list report.Fabric.Orchestrator.results) with
          | Error msg -> fail 1 "shard: merge failed: %s; work dir kept at %s" msg wd
          | Ok pair -> pair)
    end
  in
  if Array.length results <> traces * n then
    fail 1 "shard: merged %d results, expected %d (%d traces x %d coefficients)" (Array.length results) (traces * n)
      traces n;
  (* Fold the workers' obs traces into one summary next to them. *)
  (match obs_dir with
  | Some dir when workers > 1 -> (
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
        |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      match Obs.Summary.merge_files files with
      | Error msg -> Printf.eprintf "reveal: shard: obs merge: %s\n" msg
      | Ok s ->
          let out = Filename.concat dir "summary.json" in
          let oc = open_out out in
          output_string oc (Obs.Json.to_string (Obs.Summary.to_json s));
          output_char oc '\n';
          close_out oc;
          chatter "merged %d worker obs traces into %s" (List.length files) out)
  | _ -> ());
  let confident, tentative, sign_only, unknown = Reveal.Campaign.grade_counts results in
  let hints =
    Reveal.Sink.hints_of_results results (Array.length results) (fun i r ->
        Reveal.Campaign.hint_of_result ~sigma:prof.Reveal.Campaign.sigma ~coordinate:i r)
  in
  let perfect, approximate, none = Hints.Hint.kind_counts hints in
  let open Reveal.Campaign in
  if json then
    Obs.Json.(
      print
        (Obj
           [
             ("n", Int n);
             ("traces", Int traces);
             ("seed", Int seed);
             ("sign_correct", Int stats.sign_correct);
             ("sign_total", Int stats.sign_total);
             ("value_correct", Int stats.value_correct);
             ("value_total", Int stats.value_total);
             ("out_of_range", Int stats.skipped_out_of_range);
             ("corrupt_skipped", Int stats.corrupt_skipped);
             ( "grades",
               Obj
                 [
                   ("confident", Int confident); ("tentative", Int tentative); ("sign_only", Int sign_only);
                   ("unknown", Int unknown);
                 ] );
             ("hints", Obj [ ("perfect", Int perfect); ("approximate", Int approximate); ("none", Int none) ]);
           ]))
  else begin
    Printf.printf "sharded campaign: %d traces x %d coefficients (seed %d)\n" traces n seed;
    Printf.printf "signs %d/%d, values %d/%d (%d out of template range)\n" stats.sign_correct stats.sign_total
      stats.value_correct stats.value_total stats.skipped_out_of_range;
    Printf.printf "grades: confident %d, tentative %d, sign-only %d, unknown %d\n" confident tentative sign_only
      unknown;
    Printf.printf "hints: perfect %d, approximate %d, none %d\n" perfect approximate none
  end;
  if owned then Fabric.Orchestrator.remove_dir wd

(* --- obs / monitor ------------------------------------------------------- *)

(* summarize, merge and export are one fold over the given traces; only
   the text renderer differs (--json is the summary object for all
   three). *)
let obs_fold render paths sample_events json _obs =
  match Obs.Summary.merge_files ~sample_events paths with
  | Error msg -> fail 3 "%s" msg
  | Ok s -> if json then Obs.Json.print (Obs.Summary.to_json s) else print_string (render s)

let report_json (r : Fabric.Telemetry.report) =
  let open Fabric.Telemetry in
  Obs.Json.(
    Obj
      ([ ("name", String r.r_name); ("heartbeats", Int r.r_heartbeats); ("done", Int r.r_done) ]
      @ (match r.r_total with Some t -> [ ("total", Int t) ] | None -> [])
      @ [ ("skipped", Int r.r_skipped) ]
      @ (match r.r_truncated with Some m -> [ ("truncated", String m) ] | None -> [])
      @ [ ("missed_heartbeats", Bool (missed_heartbeats r)) ]))

let monitor listen workers files json _obs =
  (* Progress chatter goes to stderr; stdout carries only the final
     summary, so the text output is byte-comparable to [obs merge] over
     the workers' --obs-out files. *)
  let chatter_lock = Mutex.create () in
  let chatter fmt =
    Printf.ksprintf
      (fun s ->
        if not json then begin
          Mutex.lock chatter_lock;
          prerr_endline ("monitor: " ^ s);
          Mutex.unlock chatter_lock
        end)
      fmt
  in
  let on_heartbeat ~source ~done_ ~total ~t:_ =
    match total with
    | Some total -> chatter "%s: %d/%d coefficients" source done_ total
    | None -> chatter "%s: %d coefficients" source done_
  in
  let reports =
    match (listen, files) with
    | Some _, _ :: _ -> invalid_arg "monitor: --listen and telemetry FILE replay are mutually exclusive"
    | None, [] -> invalid_arg "monitor: pass --listen ENDPOINT or at least one recorded telemetry FILE"
    | Some dest, [] ->
        if workers <= 0 then invalid_arg "monitor: workers must be positive";
        let ep = match Fabric.Transport.parse dest with Ok ep -> ep | Error msg -> invalid_arg ("monitor: " ^ msg) in
        let listener = Fabric.Transport.listen ep in
        Fun.protect ~finally:(fun () -> Fabric.Transport.close_listener listener) @@ fun () ->
        chatter "listening on %s for %d worker stream(s)" dest workers;
        (* Accept serially (the backlog holds early connectors) but
           drain concurrently: one domain per stream, so a chatty
           worker cannot stall a quiet one's heartbeats. *)
        let drain conn =
          Fun.protect
            ~finally:(fun () -> Fabric.Transport.close_connection conn)
            (fun () -> Fabric.Telemetry.drain ~on_heartbeat ~peer:conn.Fabric.Transport.peer conn.Fabric.Transport.ic)
        in
        let rec accept_all acc k =
          if k = 0 then List.rev acc
          else
            let conn = Fabric.Transport.accept listener in
            accept_all (Domain.spawn (fun () -> drain conn) :: acc) (k - 1)
        in
        List.map Domain.join (accept_all [] workers)
    | None, files ->
        List.map
          (fun path ->
            let ic = Traceio.Error.open_in_bin path in
            Fun.protect
              ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
              (fun () -> Fabric.Telemetry.drain ~peer:path ic))
          files
  in
  let open Fabric.Telemetry in
  let reports = List.sort (fun a b -> compare a.r_name b.r_name) reports in
  let lagging =
    stragglers
      (List.filter_map
         (fun r ->
           match (r.r_first_hb, r.r_last_hb) with
           | Some a, Some b when b > a -> Some (r.r_name, r.r_done, b -. a)
           | _ -> None)
         reports)
  in
  List.iter
    (fun r ->
      if r.r_truncated <> None then chatter "%s: stream cut mid-run (worker died?)" r.r_name
      else if missed_heartbeats r then chatter "%s: missed heartbeats" r.r_name;
      if r.r_skipped > 0 then chatter "%s: %d damaged/unparseable slot(s) skipped" r.r_name r.r_skipped)
    reports;
  List.iter (fun name -> chatter "%s: straggling (rate below half the fleet median)" name) lagging;
  match merge_reports reports with
  | None -> fail 3 "monitor: no telemetry streams to summarize"
  | Some s ->
      if json then
        Obs.Json.(
          print
            (Obj
               [
                 ("workers", List (List.map report_json reports));
                 ("stragglers", List (List.map (fun n -> String n) lagging));
                 ("summary", Obs.Summary.to_json s);
               ]))
      else print_string (Obs.Summary.render s)

(* --- trial / fuzz / reduce (triage) ---------------------------------------- *)

(* The scenario flags shared by trial and reduce, validated into the
   [Triage.Plan.trial] they spell (an invalid one is a usage error). *)
let scenario_arg traces_doc =
  let intensity =
    Arg.(
      value
      & opt float 0.0
      & info [ "intensity" ] ~docv:"I" ~doc:"Measurement-fault intensity (0 = clean, 1 = full reference load).")
  in
  let gate =
    let doc =
      "Gate profile: $(b,default) (the shipped thresholds), $(b,aggressive) (thresholds floored, fit floors disabled \
       — accepts garbage confidently) or $(b,paranoid) (thresholds raised)."
    in
    Arg.(value & opt (enum Triage.Plan.gate_names) Triage.Plan.Default & info [ "gate" ] ~docv:"PROFILE" ~doc)
  in
  let scenario seed variant intensity gate traces per_value =
    if intensity < 0.0 then `Error (false, "intensity must be non-negative")
    else if traces <= 0 then `Error (false, "traces must be positive")
    else if per_value <= 0 then `Error (false, "per-value must be positive")
    else `Ok { Triage.Plan.id = 0; variant; intensity; seed; gate; traces; n = Triage.Plan.trial_n; per_value }
  in
  Term.(
    ret (const scenario $ seed_arg $ variant_arg $ intensity $ gate $ traces_arg 2 traces_doc $ per_value_arg 24))

let trial t archive archive_out out flight json obs =
  if archive <> None && archive_out <> None then
    invalid_arg "trial: --archive and --archive-out are mutually exclusive";
  (* The flight recorder: a ring-buffer obs context feeding the
     pipeline's spans and heartbeats, dumped to --flight on a failure
     verdict, a pipeline crash, or SIGTERM (the orchestrator's timeout
     kill arrives as SIGTERM first, leaving a grace window exactly for
     this dump). *)
  let run_obs, dump =
    match flight with
    | None -> (obs, fun () -> ())
    | Some path ->
        let sink, ring = Obs.Sink.ring () in
        let fobs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~source:"trial" ~sink () in
        let dump () =
          Obs.Ctx.close fobs;
          try Obs.Sink.ring_dump ring path with Failure _ -> ()
        in
        Sys.set_signal Sys.sigterm
          (Sys.Signal_handle
             (fun _ ->
               dump ();
               exit 143));
        (fobs, dump)
  in
  let measure () =
    match (archive, archive_out) with
    | Some path, _ -> Triage.Runner.run ~obs:run_obs ~archive:path t
    | None, Some path -> Triage.Runner.record_and_measure ~obs:run_obs t ~archive:path
    | None, None -> Triage.Runner.run ~obs:run_obs t
  in
  let result_json verdict m =
    Obs.Json.(
      Obj
        ([
           ("trial", Triage.Plan.to_json t);
           ("verdict", Triage.Verdict.to_json verdict);
           ("signature", String (Triage.Signature.of_verdict t verdict));
         ]
        @ match m with Some m -> [ ("measurements", Triage.Verdict.measurements_to_json m) ] | None -> []))
  in
  match out with
  | Some path ->
      (* worker mode: any classified verdict — crashes included — is a
         successful trial run, and the verdict travels in the result
         file.  Catching here maps a pipeline exception to the same
         crash family an in-process replay would produce, so worker and
         minimizer signatures agree; only a genuine malfunction (e.g. a
         Unix error) may exit nonzero. *)
      let verdict, m =
        match measure () with
        | m -> (Triage.Verdict.classify m, Some m)
        | exception (Unix.Unix_error _ as e) -> raise e
        | exception e -> (Triage.Verdict.crash_of_exn e, None)
      in
      if Triage.Verdict.is_failure verdict then dump ();
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Obs.Json.to_string (result_json verdict m) ^ "\n"))
  | None ->
      let m = measure () in
      let verdict = Triage.Verdict.classify m in
      if Triage.Verdict.is_failure verdict then dump ();
      if json then Obs.Json.print (result_json verdict (Some m))
      else begin
        let open Triage.Verdict in
        Printf.printf "trial: %s\n" (Triage.Plan.describe t);
        Printf.printf "verdict: %s\n" (to_string verdict);
        Printf.printf "signature: %s\n" (Triage.Signature.of_verdict t verdict);
        Printf.printf "grades: confident=%d tentative=%d sign-only=%d unknown=%d; values %d/%d, signs %d/%d%s\n"
          m.m_confident m.m_tentative m.m_sign_only m.m_unknown m.m_value_correct m.m_value_total m.m_sign_correct
          m.m_sign_total
          (if m.m_corrupt_skipped > 0 then Printf.sprintf " (%d corrupt record(s) skipped)" m.m_corrupt_skipped else "")
      end;
      if Triage.Verdict.is_failure verdict then raise (Exit_code 1)

let fuzz master_seed trials workers timeout work_dir known_path update_known no_minimize json _obs =
  if trials <= 0 then invalid_arg "fuzz: trials must be positive";
  if workers <= 0 then invalid_arg "fuzz: workers must be positive";
  if Option.fold ~none:false ~some:(fun t -> t <= 0.0) timeout then invalid_arg "fuzz: timeout must be positive";
  if update_known && known_path = None then invalid_arg "fuzz: --update-known needs --known FILE";
  let chatter fmt = Printf.ksprintf (fun s -> if not json then prerr_endline ("fuzz: " ^ s)) fmt in
  let owned, wd =
    match work_dir with
    | Some d -> (false, d)
    | None -> (true, Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_fuzz" ())
  in
  (* load_opt: a known file that does not exist yet is an empty store,
     so --known X --update-known bootstraps the file *)
  let known = match known_path with Some p -> Triage.Signature.load_opt p | None -> Triage.Signature.empty in
  chatter "%d trials from master seed %d, %d workers (work dir %s)" trials master_seed workers wd;
  let batch =
    Triage.Fuzz.run ~minimize:(not no_minimize) ~exe:Sys.executable_name ~work_dir:wd ~workers ~timeout_s:timeout
      ~known
      (Triage.Plan.plan ~master_seed ~trials)
  in
  let open Triage.Fuzz in
  let novel = List.filter (fun o -> o.o_status = Novel) (Array.to_list batch.b_outcomes) in
  (match known_path with
  | Some p when update_known && novel <> [] ->
      Triage.Signature.append p (List.map (fun o -> o.o_signature) novel);
      chatter "%d novel signature(s) appended to %s" (List.length novel) p
  | _ -> ());
  let reduce_repro o path = Triage.Plan.repro_command ~archive:path ~exe:Sys.executable_name o.o_trial in
  if json then begin
    let outcome_json o =
      Obs.Json.(
        Obj
          ([
             ("trial", Triage.Plan.to_json o.o_trial);
             ("verdict", Triage.Verdict.to_json o.o_verdict);
             ("signature", String o.o_signature);
             ("repro", String o.o_repro);
           ]
          @ (match o.o_archive with Some a -> [ ("archive", String a) ] | None -> [])
          @ (match o.o_flight with Some f -> [ ("flight", String f) ] | None -> [])
          @
          match o.o_minimized with
          | Some (path, report) ->
              [
                ("minimized", String path);
                ("reduction", Triage.Minimize.to_json report);
                ("reduce_repro", String (reduce_repro o path));
              ]
          | None -> []))
    in
    Obs.Json.(
      print
        (Obj
           [
             ("master_seed", Int master_seed);
             ("trials", Int trials);
             ("workers", Int workers);
             ("work_dir", String wd);
             ("summary", Obj (List.map (fun (k, c) -> (k, Int c)) batch.b_summary));
             ("novel", Int batch.b_novel);
             ("known", Int batch.b_known);
             ("duplicate", Int batch.b_duplicate);
             ("novel_failures", List (List.map outcome_json novel));
           ]))
  end
  else begin
    Array.iter
      (fun o ->
        Printf.printf "trial %4d: %s -> %s%s\n" o.o_trial.Triage.Plan.id (Triage.Plan.describe o.o_trial)
          (Triage.Verdict.to_string o.o_verdict)
          (match o.o_status with
          | Passed -> ""
          | Novel -> " [novel]"
          | Known -> " [known]"
          | Duplicate -> " [duplicate]"))
      batch.b_outcomes;
    Printf.printf "summary: %s\n"
      (String.concat " " (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) batch.b_summary));
    Printf.printf "failures: %d novel, %d known, %d duplicate\n" batch.b_novel batch.b_known batch.b_duplicate;
    List.iter
      (fun o ->
        Printf.printf "\nnovel failure: %s\n" o.o_signature;
        Printf.printf "  trial %d: %s\n" o.o_trial.Triage.Plan.id (Triage.Plan.describe o.o_trial);
        Printf.printf "  repro: %s\n" o.o_repro;
        Option.iter (Printf.printf "  archive: %s\n") o.o_archive;
        Option.iter (Printf.printf "  flight: %s\n") o.o_flight;
        Option.iter
          (fun (path, report) ->
            Printf.printf "  minimized: %s (%s)\n" path (Triage.Minimize.describe report);
            Printf.printf "  reduce repro: %s\n" (reduce_repro o path))
          o.o_minimized)
      novel
  end;
  if batch.b_novel > 0 then begin
    if owned then chatter "novel failures found; work dir kept at %s" wd;
    raise (Exit_code 1)
  end;
  if owned then Fabric.Orchestrator.remove_dir wd

let reduce t archive expect out json _obs =
  if expect = Some "timeout" then
    invalid_arg "reduce: timeout verdicts do not reproduce in-process and cannot be reduced";
  let dst = match out with Some p -> p | None -> Filename.remove_extension archive ^ ".min.rvt" in
  let prof = Triage.Runner.profile_for t in
  let expected = Triage.Runner.replay_verdict t prof ~archive in
  (match expect with
  | Some k when k <> Triage.Verdict.kind expected ->
      fail 1 "reduce: archive replays as %s, expected %s" (Triage.Verdict.to_string expected) k
  | _ -> ());
  if not (Triage.Verdict.is_failure expected) then
    fail 1 "reduce: archive replays as %s — nothing to reduce" (Triage.Verdict.to_string expected);
  let check path = Triage.Verdict.same_failure (Triage.Runner.replay_verdict t prof ~archive:path) expected in
  let wd = Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_reduce" () in
  Fun.protect ~finally:(fun () -> Fabric.Orchestrator.remove_dir wd) @@ fun () ->
  match Triage.Minimize.reduce ~check ~work_dir:wd ~src:archive ~dst with
  | Error msg -> fail 1 "reduce: %s" msg
  | Ok report ->
      let repro = Triage.Plan.repro_command ~archive:dst ~exe:Sys.executable_name t in
      if json then
        Obs.Json.(
          print
            (Obj
               [
                 ("archive", String archive);
                 ("minimized", String dst);
                 ("verdict", Triage.Verdict.to_json expected);
                 ("reduction", Triage.Minimize.to_json report);
                 ("reduce_repro", String repro);
               ]))
      else begin
        Printf.printf "verdict: %s\n" (Triage.Verdict.to_string expected);
        Printf.printf "minimized %s -> %s: %s\n" archive dst (Triage.Minimize.describe report);
        Printf.printf "reduce repro: %s\n" repro
      end

(* --- the subcommand table ---------------------------------------------------- *)

let description paragraphs = `S Manpage.s_description :: List.map (fun p -> `P p) paragraphs

let () =
  let doc = "RevEAL: single-trace side-channel attack on the SEAL BFV encryptor (reproduction)" in
  let man =
    description
      [
        "Every stage of the paper's pipeline is a subcommand (see COMMANDS). Every subcommand but $(b,worker) \
         accepts $(b,--json) for one machine-readable JSON value on stdout.";
      ]
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1
        ~doc:
          "when the attack or a requested check fails (recovery below threshold, sweep invariant violated, a shard \
           exhausted its retry budget).";
      Cmd.Exit.info 2 ~doc:"on usage errors and impossible configurations.";
      Cmd.Exit.info 3 ~doc:"on I/O errors and corrupt archives, profile caches or shard result files.";
    ]
  in
  let sample_events =
    let doc =
      "Keep only every $(docv)-th point event while aggregating, weighting kept ones by $(docv) — bounded-memory \
       summaries of event-heavy traces. Spans, counters, gauges and histograms are always exact."
    in
    Arg.(value & opt int 1 & info [ "sample-events" ] ~docv:"K" ~doc)
  in
  let trace_files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"TRACE" ~doc:"Trace files written by --obs-out.")
  in
  let no_obs = Term.const { out = None; clock = Obs.Clock.Wall; stream = None; source = None } in
  let obs_entry name ~man doc render files =
    cmd name ~obs:no_obs ~man:(description man) doc Term.(const (obs_fold render) $ files $ sample_events)
  in
  let work_dir doc = opt_string [ "work-dir" ] ~docv:"DIR" doc in
  let shard_id = Arg.(value & opt int 0 & info [ "shard-id" ] ~docv:"I" ~doc:"Shard position in the plan.") in
  let required_opt c names ~docv doc = Arg.(required & opt (some c) None & info names ~docv ~doc) in
  let reveal =
    Cmd.group (Cmd.info "reveal" ~version:"1.0.0" ~doc ~man ~exits)
      [
        cmd "disasm" "Print the RV32IM assembly listing of the sampler firmware."
          Term.(const disasm $ variant_arg $ n_arg 4);
        cmd "trace" "Capture one power trace of the sampler and plot or dump it."
          Term.(
            const trace $ seed_arg $ variant_arg $ n_arg 4
            $ opt_string [ "csv" ] ~docv:"FILE" "Write the trace as CSV.");
        cmd "profile" "Build attack templates on a clone device and cache them to disk."
          Term.(
            const profile $ seed_arg $ n_arg 128 $ per_value_arg 400
            $ Arg.(value & opt string "reveal_profile.bin" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Cache file."));
        cmd "attack" "Run the single-trace attack on one honest sampling."
          Term.(const attack $ seed_arg $ n_arg 128 $ load_or_profile $ verbose_arg "Print every coefficient.");
        cmd "record" "Capture a campaign of honest sampler traces into a binary archive."
          Term.(
            const record $ seed_arg $ variant_arg $ n_arg 128 $ traces_arg 16 "Number of traces to record."
            $ Arg.(value & opt string "campaign.rvt" & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Archive file."));
        cmd "replay-attack" "Re-run the single-trace attack offline from a recorded archive."
          Term.(
            const replay_attack $ archive_arg "Trace archive (see record)." $ load_or_profile
            $ Arg.(
                value & opt int 42 & info [ "profile-seed" ] ~docv:"SEED" ~doc:"Seed for on-the-fly profiling.")
            $ flag [ "strict" ] "Fail fast (exit 3) on the first corrupt record instead of skipping it."
            $ Arg.(
                value
                & opt float 0.0
                & info [ "min-values" ] ~docv:"RATE"
                    ~doc:"Exit 1 when the value recovery rate falls below $(docv) (a fraction in [0,1]).")
            $ verbose_arg "Print every coefficient.");
        cmd "inspect" "Validate every checksum of a trace archive and print its contents."
          Term.(const inspect $ archive_arg "Trace archive." $ flag [ "records" ] "Print a line per record.");
        cmd "fault-sweep" "Sweep measurement-fault intensity and report graceful degradation."
          Term.(
            const fault_sweep
            $ experiment_config ~n:128 ~per_value:300 ~traces:8
                ~traces_doc:"Campaign size $(docv): each intensity attacks max(2, $(docv)/4) traces."
            $ Arg.(
                value
                & opt (some (list float)) None
                & info [ "intensities" ] ~docv:"I,I,..."
                    ~doc:"Comma-separated fault intensities (default 0,0.25,0.5,0.75,1).")
            $ check_arg
                "Verify the sweep invariants (recovery monotone non-increasing, bikz never under-reported) and \
                 that zero intensity reproduces the clean pipeline exactly; exit 1 on violation.");
        cmd "lint"
          ~man:
            (description
               [
                 "Recovers the control-flow graph from the encoded firmware, runs a secret-taint dataflow \
                  analysis seeded at the entropy MMIO ports, and reports secret-dependent branches, memory \
                  addresses and path-length imbalances (violations) plus secret data crossing the memory bus \
                  (leak surface). Every static finding is then adversarially confirmed by executing the \
                  firmware under pairs of secrets and diffing the per-finding trace signatures.";
                 "Without $(b,--check) the exit code is the verdict: 0 when constant-time (no violations), 1 \
                  otherwise. With $(b,--check) the findings are instead compared against the expected leakage \
                  taxonomy of the selected variant and any drift exits 1.";
               ])
          "Constant-time lint of the sampler firmware, with differential-trace confirmation."
          Term.(
            const lint $ variant_arg $ n_arg 4
            $ Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Number of RNS planes the firmware writes.")
            $ flag [ "no-confirm" ] "Skip the differential oracle; report static findings only."
            $ check_arg "Compare the findings against the variant's expected verdict table; exit 1 on drift."
            $ verbose_arg "Append the annotated listing.");
        cmd "srclint"
          ~man:
            (description
               [
                 "Parses every $(b,.ml) file under the given paths with the compiler's own front end and reports \
                  four rule classes, all syntactic and deliberately conservative: $(b,nondet-source) (ambient \
                  randomness, wall-clock and scheduling reads), $(b,hashtbl-order) (hash-order iteration that is \
                  not visibly sorted before it can reach emitted output), $(b,domain-capture) (Domain.spawn \
                  closures touching mutable state with no synchronizer in scope) and $(b,exn-message) (matching \
                  or comparing exception message strings instead of exception families).";
                 "A finding at a provably-benign site is suppressed with an in-source directive comment \
                  \"srclint: allow RULE reason\" on the line above (or on) the site; the reason is mandatory and \
                  an allow that suppresses nothing is itself reported, so the suppression table cannot rot. \
                  Fixture files assert their expected findings with \"srclint: expect RULE\" directives, checked \
                  by $(b,--check).";
                 "Exit codes: 0 when clean (or, with $(b,--check), when the findings match the expect table \
                  exactly); 1 on findings or drift; 2 on usage errors and unparseable sources. The pipeline's \
                  own tree must stay clean — scripts/check.sh runs this over lib/, bin/, bench/, tools/, \
                  campaign_bench/ and examples/ on every gate.";
               ])
          "Determinism and domain-safety lint of the pipeline's own OCaml source."
          Term.(
            const srclint
            $ Arg.(
                value & pos_all string []
                & info [] ~docv:"PATH"
                    ~doc:"Files or directories to lint (default: lib bin bench tools campaign_bench examples).")
            $ check_arg "Compare the findings against the in-source expect directives; exit 1 on drift.");
        cmd "estimate" "DBDD security estimate for SEAL-128 under side-channel hints."
          Term.(
            const estimate
            $ Arg.(value & opt int 1024 & info [ "perfect" ] ~docv:"K" ~doc:"Number of perfect error hints.")
            $ flag [ "sign-only" ] "Use branch-vulnerability hints only (Table IV).");
        cmd "report"
          ~man:
            (description
               [
                 "Every table and figure of the paper's evaluation is registered by name (see $(b,--list)). Each \
                  artefact is rendered either as the historical fixed-width text or, with $(b,--json), as a \
                  machine-readable JSON value carrying the same rows. Artefacts are deterministic in \
                  $(b,--seed) and the campaign-size arguments.";
               ])
          "Render one experiment artefact of the paper (tables, figures, ablations)."
          Term.(
            const report
            $ Arg.(value & pos 0 (some string) None & info [] ~docv:"ARTEFACT" ~doc:"Artefact name (see --list).")
            $ flag [ "list" ] "List the available artefact names and exit."
            $ experiment_config ~n:64 ~per_value:80 ~traces:2 ~traces_doc:"Attack traces for campaign artefacts.");
        cmd "worker" ~json:(Term.const false)
          ~obs:
            (* a worker names its obs stream after its shard, so a
               fleet aggregator can tell the streams apart *)
            Term.(const (fun o id -> { o with source = Some (Printf.sprintf "shard-%d" id) }) $ obs_args $ shard_id)
          ~man:
            (description
               [
                 "The worker half of $(b,reveal shard): loads a cached profile, re-derives the full campaign \
                  seed table from $(b,--seed), attacks only the trace slice [$(b,--shard-lo),$(b,--shard-hi)) \
                  and writes a CRC-framed $(b,Fabric.Shard) result file to $(b,--out). Invoked by the \
                  orchestrator with stdout and stderr captured to a per-attempt log; it is also a plain \
                  subcommand, so a shard can be re-run by hand for debugging. With an $(b,--obs-*) flag its \
                  trace is named shard-$(i,I) after $(b,--shard-id).";
               ])
          "Attack one shard of a campaign and write a shard result file (used by shard)."
          Term.(
            const worker $ seed_arg $ n_arg 128
            $ required_opt Arg.int [ "traces" ] ~docv:"T" "Total campaign trace count."
            $ required_opt Arg.int [ "shard-lo" ] ~docv:"LO" "First trace index of the shard."
            $ required_opt Arg.int [ "shard-hi" ] ~docv:"HI" "One past the last trace index of the shard."
            $ shard_id
            $ required_opt Arg.string [ "profile" ] ~docv:"FILE" "Cached profile (see profile)."
            $ required_opt Arg.string [ "o"; "out" ] ~docv:"FILE" "Shard result file."
            $ flag [ "sabotage" ]
                "Test aid: after writing a deliberately truncated result file, kill this process with SIGKILL.");
        cmd "shard"
          ~man:
            (description
               [
                 "Profiles once, caches the templates in the work dir, partitions the campaign's trace index \
                  space into $(b,--workers) contiguous shards and runs one $(b,reveal worker) process per shard \
                  (stdout and stderr captured to per-attempt logs). Shard results come back in CRC-framed \
                  files, are validated, and merge in trace order; the printed campaign results are \
                  bit-identical to $(b,--workers 1), which runs the same campaign in-process.";
                 "A worker that crashes, exits nonzero or leaves a corrupt result file is retried up to \
                  $(b,--retries) extra attempts; only when a shard exhausts its budget does the command fail \
                  (exit 1), keeping the work dir and its logs for diagnosis.";
               ])
          "Run a campaign sharded over N worker processes and merge deterministically."
          Term.(
            const shard $ seed_arg $ n_arg 128 $ per_value_arg 300 $ traces_arg 4 "Campaign trace count."
            $ Arg.(
                value & opt int 2
                & info [ "workers" ] ~docv:"W" ~doc:"Worker processes; 1 runs in-process, no fork.")
            $ Arg.(
                value & opt int 1 & info [ "retries" ] ~docv:"R" ~doc:"Extra attempts per shard after the first.")
            $ Arg.(
                value
                & opt (some float) None
                & info [ "shard-timeout" ] ~docv:"SECONDS"
                    ~doc:
                      "Wall-clock budget per worker attempt; a worker that outlives it is killed and charged a \
                       timeout failure against its retry budget (default: no limit).")
            $ work_dir
                "Work directory for profile cache, shard results and logs (default: private temp dir, removed \
                 on success)."
            $ Arg.(
                value
                & opt (some int) None
                & info [ "sabotage" ] ~docv:"SHARD"
                    ~doc:
                      "Test aid: make shard $(docv)'s first attempt write a truncated result and die, exercising \
                       the retry path.")
            $ opt_string [ "obs-dir" ] ~docv:"DIR"
                "Collect per-worker observability traces (logical clock) in $(docv) and fold them into \
                 summary.json."
            $ opt_string [ "telemetry" ] ~docv:"ENDPOINT"
                "Stream each worker's observability trace live to $(docv) (\"unix:PATH\" or \"tcp:HOST:PORT\") — \
                 attach $(b,reveal monitor --listen) $(docv) $(b,--workers) W first. Workers stream under the \
                 logical clock, named shard-0, shard-1, ...");
        Cmd.group
          (Cmd.info "obs" ~doc:"Work with observability traces (files written by --obs-out).")
          [
            obs_entry "summarize"
              ~man:
                [
                  "Reads a JSON Lines trace produced by any subcommand's $(b,--obs-out) and prints one table per \
                   section: span wall-clock totals (count / total / mean / max), counter totals, gauge values, \
                   histogram buckets and severity-tagged events. With $(b,--json) the same aggregation is \
                   emitted as one JSON object.";
                ]
              "Aggregate an observability trace into per-span timings, counters, gauges and histograms."
              Obs.Summary.render
              Term.(
                const (fun f -> [ f ])
                $ Arg.(
                    required
                    & pos 0 (some string) None
                    & info [] ~docv:"TRACE" ~doc:"Trace file written by --obs-out."));
            obs_entry "merge"
              ~man:
                [
                  "Aggregates each trace like $(b,summarize), then combines the summaries: span counts/totals and \
                   counter, event, gauge and histogram-bucket totals sum; span and histogram maxima take the \
                   max. This is the fold $(b,reveal shard --obs-dir) applies to its workers' traces; running it \
                   by hand answers what a whole sharded campaign did across all processes.";
                ]
              "Merge several observability traces into one aggregate summary." Obs.Summary.render trace_files;
            obs_entry "export"
              ~man:
                [
                  "Aggregates the traces like $(b,merge), then renders the summary as Prometheus-style text \
                   metrics ($(b,reveal_span_count), $(b,reveal_counter_total), $(b,reveal_histogram_bucket) with \
                   cumulative $(b,le) labels, ...) for scraping into an existing metrics stack. $(b,--json) \
                   emits the same aggregate as the $(b,summarize) JSON object instead.";
                ]
              "Export merged observability traces in the Prometheus text exposition format."
              Obs.Summary.to_prometheus trace_files;
          ];
        cmd "monitor"
          ~man:
            (description
               [
                 "With $(b,--listen), binds the endpoint, accepts one framed telemetry stream per expected \
                  worker (point $(b,reveal shard --telemetry) or any subcommand's $(b,--obs-stream) at it), \
                  narrates heartbeat progress and anomalies — streams cut mid-run, missed heartbeats, \
                  stragglers running below half the fleet's median rate — to stderr, and prints the merged \
                  end-of-run summary to stdout. The merge is the $(b,reveal obs merge) fold in sorted source \
                  order, so when workers also write $(b,--obs-out) files the two summaries are bit-identical.";
                 "With FILE arguments instead, replays recorded telemetry streams ($(b,--obs-stream) pointed at \
                  a plain path) through the same aggregation — deterministic under the logical clock. A stream \
                  cut before its end frame is reported, not fatal: a dead worker is a finding. Note the \
                  aggregator drains exactly one stream per expected worker; a retried worker attempt opens a \
                  fresh connection the monitor will not count.";
               ])
          "Watch a worker fleet's telemetry live, or replay recorded telemetry streams."
          Term.(
            const monitor
            $ opt_string [ "listen" ] ~docv:"ENDPOINT"
                "Accept live telemetry streams on $(docv) (\"unix:PATH\" or \"tcp:HOST:PORT\")."
            $ Arg.(
                value & opt int 1
                & info [ "workers" ] ~docv:"W" ~doc:"Streams to accept before summarizing (match the fleet size).")
            $ Arg.(
                value & pos_all string []
                & info [] ~docv:"FILE"
                    ~doc:"Recorded telemetry stream (written by --obs-stream with a file DEST)."));
        cmd "trial"
          ~man:
            (description
               [
                 "A trial records a faulted campaign archive (variant, intensity, seed, traces), replays the \
                  attack over it under the requested gate profile, checks the pipeline's internal \
                  invariants, and classifies the outcome: $(b,bit-exact), $(b,degraded-hints), $(b,misgrade), \
                  or $(b,invariant-violation). This is both the worker the fuzzer spawns ($(b,--out)) and the \
                  repro contract: every failure $(b,reveal fuzz) reports prints one $(b,trial) line that \
                  reproduces it, optionally against a minimized archive ($(b,--archive)).";
                 "Exits 1 when the verdict is a failure (misgrade, invariant violation) — except in $(b,--out) \
                  worker mode, where any classified verdict is a successful trial run.";
               ])
          "Run one randomized-campaign trial scenario and print its typed verdict."
          Term.(
            const trial $ scenario_arg "Campaign trace count."
            $ opt_string [ "archive" ] ~docv:"FILE"
                "Replay this archive instead of recording one (the reduce repro path)."
            $ opt_string [ "archive-out" ] ~docv:"FILE" "Keep the recorded campaign archive at $(docv)."
            $ opt_string [ "out" ] ~docv:"FILE"
                "Worker mode: write the JSON verdict record to $(docv) and exit 0 for any classified verdict."
            $ opt_string [ "flight" ] ~docv:"FILE"
                "Arm the flight recorder: keep the last obs events of the run in a fixed ring and dump them to \
                 $(docv) on a failure verdict, a pipeline crash, or SIGTERM (how the orchestrator's timeout kill \
                 announces itself) — crash forensics for $(b,reveal fuzz).");
        cmd "fuzz"
          ~man:
            (description
               [
                 "Expands one master seed into a deterministic table of trial scenarios (fault intensity x \
                  sampler variant x campaign seed x gate profile), runs each as a $(b,reveal trial) \
                  worker process under a bounded pool, and classifies every outcome into a typed verdict. \
                  Failing verdicts are fingerprinted into stable signatures, deduplicated against $(b,--known) \
                  and within the batch, and each novel failure is reported with a one-line repro command and — \
                  when it reproduces in-process — an automatically minimized archive.";
                 "Two runs with the same master seed, trial count and $(b,--work-dir) produce byte-identical \
                  trial tables and verdict summaries. Exits 1 when novel failures were found, 0 when everything \
                  passed or was known.";
               ])
          "Run a randomized trial campaign; surface novel, deduplicated, pre-minimized failures."
          Term.(
            const fuzz
            $ Arg.(
                value & opt int 42
                & info [ "master-seed" ] ~docv:"SEED" ~doc:"Master seed the trial table expands from.")
            $ Arg.(value & opt int 100 & info [ "trials" ] ~docv:"N" ~doc:"Number of trials to run.")
            $ Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W" ~doc:"Concurrent trial worker processes.")
            $ Arg.(
                value
                & opt (some float) (Some 120.0)
                & info [ "trial-timeout" ] ~docv:"SECONDS"
                    ~doc:"Wall-clock budget per trial; a hung trial is killed and becomes a timeout verdict.")
            $ work_dir
                "Per-trial artefact directory (archives, result files, logs, minimized corpora). Default: \
                 private temp dir, removed when no novel failure is found. Pass the same $(docv) to two runs for \
                 byte-identical output."
            $ opt_string [ "known" ] ~docv:"FILE"
                "Known-signatures file; matching failures are suppressed as [known]."
            $ flag [ "update-known" ] "Append novel signatures to the $(b,--known) file."
            $ flag [ "no-minimize" ] "Skip auto-minimization of novel failures.");
        cmd "reduce"
          ~man:
            (description
               [
                 "Replays the trial scenario (same flags as $(b,reveal trial)) over the archive to establish \
                  the failing verdict, then minimizes in two passes: the smallest record subset (ddmin-style \
                  chunk removal), then the smallest per-record sample span (stepped greedy cuts). Every \
                  candidate is re-verified by a full replay, so the emitted archive reproduces the verdict by \
                  construction; the printed $(b,reduce repro:) line replays it.";
                 "Exits 1 when the archive does not reproduce a failing verdict (or disagrees with \
                  $(b,--expect)).";
               ])
          "Shrink a failing trial archive to a minimal reproducer (deterministic bisection over replay)."
          Term.(
            const reduce $ scenario_arg "Campaign trace count of the scenario."
            $ archive_arg "Failing trial archive (.rvt)."
            $ Arg.(
                value
                & opt (some (enum (List.map (fun k -> (k, k)) Triage.Fuzz.kinds_in_order))) None
                & info [ "expect" ] ~docv:"KIND"
                    ~doc:"Fail unless the archive replays to this verdict kind ($(b,timeout) is a usage error).")
            $ opt_string [ "o"; "out" ] ~docv:"FILE"
                "Minimized archive path (default: ARCHIVE with a .min.rvt suffix).");
      ]
  in
  exit (Cmd.eval' ~term_err:2 reveal)
