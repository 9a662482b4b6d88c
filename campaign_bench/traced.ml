(* The traced run: the same campaign as [Workload.campaign], driven
   stage by stage through public functions so that the benchmark's own
   spans can time each layer.  The span context is the benchmark's; it
   is never passed into the library, so traced and untraced runs
   execute the same library code.

   Stage contracts used: the classifier and segmenter go into
   [Grading.attack_resilient] through [Pipeline.classifier] /
   [Pipeline.segmenter]; decode is wrapped with
   [Traceio.Source.make_fv]; [Device.run] is replaced by its three
   layer calls ([Riscv.Cpu.run], [Power.Synth.synthesize],
   [Power.Fault.apply]) with [Reveal.Source]'s seed derivation. *)

module Campaign = Reveal.Campaign
module Pipeline = Reveal.Pipeline
module Prng = Mathkit.Prng

type counts = {
  mutable instructions : int;
  mutable samples : int;
  mutable records : int;
  mutable skipped : int;
  mutable windows : int;
  mutable resynced : int;
  mutable suspect : int;
  mutable segment_errors : int;
  mutable scored : int;
  mutable retry_passes : int;
  mutable trace_ms : float list;
  mutable riscv_words : float;
  mutable power_words : float;
  mutable traceio_words : float;
  mutable segment_words : float;
  mutable score_words : float;
  mutable profile_words : float;
}

type t = { obs : Obs.Ctx.t; c : counts }

let fresh_counts () =
  {
    instructions = 0;
    samples = 0;
    records = 0;
    skipped = 0;
    windows = 0;
    resynced = 0;
    suspect = 0;
    segment_errors = 0;
    scored = 0;
    retry_passes = 0;
    trace_ms = [];
    riscv_words = 0.0;
    power_words = 0.0;
    traceio_words = 0.0;
    segment_words = 0.0;
    score_words = 0.0;
    profile_words = 0.0;
  }

let create obs = { obs; c = fresh_counts () }

(* A context that records nothing: the replica's reference runs. *)
let silent () = create Obs.Ctx.disabled
let span tr name f = Obs.Ctx.span tr.obs name f

(* A span whose minor-heap allocation is added to a counter. *)
let span_words tr name add f =
  span tr name (fun () ->
      let w0 = Probe.minor_words () in
      let v = f () in
      add (Probe.minor_words () -. w0);
      v)

(* --- acquisition ---------------------------------------------------------------- *)

(* What [Reveal.Device.run] executes for the workloads' devices (default
   cycle model, single RNS prime): firmware simulation, power synthesis,
   then the fault pass, each its own span. *)
type machine = {
  device : Reveal.Device.t;
  n : int;
  program : Riscv.Asm.program;
  layout : Riscv.Sampler_prog.layout;
  moduli : int array;
  synth : Power.Synth.config;
  fault : Power.Fault.config option;
}

let machine device =
  let n = Reveal.Device.n device in
  let moduli = Reveal.Device.moduli device in
  {
    device;
    n;
    (* one trailing dummy coefficient, as the device builds it *)
    program = Riscv.Sampler_prog.build ~variant:(Reveal.Device.variant device) ~n:(n + 1) ~k:(Array.length moduli) ();
    layout = Riscv.Sampler_prog.default_layout;
    moduli;
    synth = Reveal.Device.synth_config device;
    fault = Reveal.Device.fault_config device;
  }

let execute tr m ~scope_rng ~draws =
  let draws = Array.append draws [| (0, 0) |] in
  let mem = Riscv.Memory.create m.layout.Riscv.Sampler_prog.ram_size in
  Riscv.Memory.load_program mem 0 m.program.Riscv.Asm.words;
  Riscv.Sampler_prog.stage_moduli mem m.layout m.moduli;
  Riscv.Sampler_prog.install_noise_port mem ~draws;
  let recorder = Riscv.Trace.recorder () in
  let cpu = Riscv.Cpu.create ~tracer:(Riscv.Trace.record recorder) mem in
  let retired =
    span_words tr "riscv.sim"
      (fun w -> tr.c.riscv_words <- tr.c.riscv_words +. w)
      (fun () -> Riscv.Cpu.run ~max_steps:(200 * m.n * 64) cpu)
  in
  tr.c.instructions <- tr.c.instructions + retired;
  let events = Riscv.Trace.events recorder in
  let trace =
    span_words tr "power.synth"
      (fun w -> tr.c.power_words <- tr.c.power_words +. w)
      (fun () -> Power.Synth.synthesize ~rng:scope_rng m.synth events)
  in
  tr.c.samples <- tr.c.samples + Power.Ptrace.length trace;
  let trace =
    match m.fault with
    | Some f when not (Power.Fault.is_noop f) ->
        span tr "power.fault" (fun () -> Power.Fault.apply ~rng:(Prng.split scope_rng) f trace)
    | _ -> trace
  in
  ignore (Riscv.Sampler_prog.read_poly mem m.layout ~n:(m.n + 1) ~k:(Array.length m.moduli));
  trace.Power.Ptrace.samples

(* [Reveal.Source.device_live ~retry:true]'s item: per-trace generators
   from the pre-drawn seed pair, and a re-measurement closure on the
   salted retry stream. *)
let live_acquire tr m (scope_seed, sampler_seed) =
  let scope_rng = Prng.create ~seed:scope_seed () in
  let sampler_rng = Prng.create ~seed:sampler_seed () in
  let draws, _ = Riscv.Sampler_prog.draws_of_gaussian sampler_rng Mathkit.Gaussian.seal_default ~count:m.n in
  let samples = execute tr m ~scope_rng ~draws in
  let noises = Array.map fst draws in
  let retry_master = Prng.create ~seed:(Int64.logxor scope_seed Reveal.Constants.retry_seed_salt) () in
  let remeasure _attempt =
    tr.c.retry_passes <- tr.c.retry_passes + 1;
    span tr "reveal.reacquire" (fun () ->
        let rng = Prng.split retry_master in
        let draws = Array.map (fun v -> Reveal.Device.profiling_draw m.device rng ~value:v) noises in
        Mathkit.Fvec.of_array (execute tr m ~scope_rng:rng ~draws))
  in
  (samples, noises, remeasure)

let seed_table ~traces (seeds : Workload.seeds) =
  let scope_rng = Prng.create ~seed:seeds.scope () in
  let sampler_rng = Prng.create ~seed:seeds.sampler () in
  Array.init traces (fun _ -> (Prng.bits64 scope_rng, Prng.bits64 sampler_rng))

let live_source tr m ~traces seeds =
  let table = seed_table ~traces seeds in
  let pos = ref 0 in
  let module S = struct
    type t = unit

    let name = "traced-live"

    let next () =
      if !pos >= traces then `End
      else begin
        let i = !pos in
        incr pos;
        `Item
          {
            Pipeline.index = i;
            acquire =
              (fun () ->
                let samples, noises, remeasure = live_acquire tr m table.(i) in
                { Pipeline.samples = Mathkit.Fvec.of_array samples; noises; remeasure = Some remeasure });
          }
      end

    let close () = ()
  end in
  Pipeline.Source ((module S), ())

let bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* The replica must reproduce [Device.run] bit for bit: every trace's
   first capture and its first re-measurement are compared. *)
let check_replica m ~traces seeds =
  let tr = silent () in
  Array.for_all
    (fun (scope_seed, sampler_seed) ->
      let lib =
        Reveal.Device.run_gaussian m.device ~scope_rng:(Prng.create ~seed:scope_seed ())
          ~sampler_rng:(Prng.create ~seed:sampler_seed ())
      in
      let samples, noises, remeasure = live_acquire tr m (scope_seed, sampler_seed) in
      let retry_lib =
        let master = Prng.create ~seed:(Int64.logxor scope_seed Reveal.Constants.retry_seed_salt) () in
        let rng = Prng.split master in
        let draws = Array.map (fun v -> Reveal.Device.profiling_draw m.device rng ~value:v) lib.Reveal.Device.noises in
        (Reveal.Device.run m.device ~scope_rng:rng ~draws).Reveal.Device.trace.Power.Ptrace.samples
      in
      bits_equal samples lib.Reveal.Device.trace.Power.Ptrace.samples
      && noises = lib.Reveal.Device.noises
      && bits_equal (Mathkit.Fvec.to_array (remeasure 1)) retry_lib)
    (seed_table ~traces seeds)

(* [Campaign.attack_archive]'s tolerant replay source, decode spanned. *)
let replay_source tr path =
  let stream = Traceio.Source.of_archive path in
  let next_fv () =
    let ev =
      span_words tr "traceio.decode"
        (fun w -> tr.c.traceio_words <- tr.c.traceio_words +. w)
        (fun () -> Traceio.Source.next_fv stream)
    in
    (match ev with
    | `Record _ -> tr.c.records <- tr.c.records + 1
    | `Skipped _ -> tr.c.skipped <- tr.c.skipped + 1
    | `End_of_archive -> ());
    ev
  in
  Reveal.Source.of_trace_source
    (Traceio.Source.make_fv ~name:(Traceio.Source.name stream)
       ~next:(fun () -> Traceio.Source.next stream)
       ~next_fv
       ~close:(fun () -> Traceio.Source.close stream))

(* --- segmenter and classifier --------------------------------------------------- *)

let segmenter tr : Pipeline.segmenter =
  (module struct
    let name = "traced-resilient"

    let segment prof ~count samples =
      let r =
        span_words tr "sca.segment"
          (fun w -> tr.c.segment_words <- tr.c.segment_words +. w)
          (fun () -> Pipeline.run_segmenter Pipeline.resilient_segmenter prof ~count samples)
      in
      (match r with
      | Ok seg ->
          tr.c.windows <- tr.c.windows + Array.length seg.Pipeline.vectors;
          Array.iter
            (function
              | Sca.Segment.Clean -> ()
              | Resynced -> tr.c.resynced <- tr.c.resynced + 1
              | Suspect -> tr.c.suspect <- tr.c.suspect + 1)
            seg.Pipeline.quality
      | Error _ -> tr.c.segment_errors <- tr.c.segment_errors + 1);
      r
  end)

let classifier tr attack =
  let module C = struct
    include Sca.Classifier.Template

    let grade c scratch w =
      tr.c.scored <- tr.c.scored + 1;
      span_words tr "sca.score"
        (fun words -> tr.c.score_words <- tr.c.score_words +. words)
        (fun () -> Sca.Classifier.Template.grade c scratch w)
  end in
  Pipeline.Classifier ((module C), attack)

(* --- setup ----------------------------------------------------------------------- *)

(* [Profiling.profile_of_windows] with template building and fit-floor
   calibration in separate spans. *)
let profile_of_windows tr (segment, window_length, classes) =
  let values = Array.of_list (List.map fst classes) in
  let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
  let attack =
    span tr "sca.build" (fun () ->
        Sca.Attack.build ~poi_count:Reveal.Constants.default_poi_count
          ~sign_poi_count:Reveal.Constants.default_sign_poi_count ~sigma classes)
  in
  let sign_fit_floor, value_fit_floor =
    span tr "reveal.profile_floor" (fun () ->
        let scratch = Sca.Attack.make_scratch attack in
        let wv = Mathkit.Fvec.create window_length in
        let sign_fits = ref [] and value_fits = ref [] in
        List.iter
          (fun (label, rows) ->
            let sign = Sca.Attack.sign_of_label label in
            Array.iter
              (fun w ->
                Mathkit.Fvec.blit_from_array w wv;
                sign_fits := Sca.Attack.sign_fit_fv attack scratch wv :: !sign_fits;
                if sign <> 0 then value_fits := Sca.Attack.value_fit_fv attack scratch ~sign wv :: !value_fits)
              rows)
          classes;
        ( Reveal.Profiling.fit_floor (Array.of_list !sign_fits),
          Reveal.Profiling.fit_floor (Array.of_list !value_fits) ))
  in
  { Pipeline.attack; window_length; segment; values; sigma; sign_fit_floor; value_fit_floor }

let setup tr (inputs : Workload.inputs) =
  let spec = inputs.spec in
  span tr "bench.setup" (fun () ->
      let windows =
        span_words tr "reveal.profile_acquire"
          (fun w -> tr.c.profile_words <- tr.c.profile_words +. w)
          (fun () ->
            match spec.source with
            | Workload.Live ->
                Campaign.profiling_windows ~per_value:spec.per_value (Workload.clean_device spec)
                  (Prng.create ~seed:inputs.seeds.profile ())
            | Replay -> Campaign.profiling_windows_of_archive inputs.profiling_archive)
      in
      profile_of_windows tr windows)

(* Same templates and floors as the library's profile, bit for bit. *)
let same_profile (a : Campaign.profile) (b : Campaign.profile) =
  a.window_length = b.window_length
  && a.values = b.values
  && Int64.bits_of_float a.sign_fit_floor = Int64.bits_of_float b.sign_fit_floor
  && Int64.bits_of_float a.value_fit_floor = Int64.bits_of_float b.value_fit_floor
  && a.attack.Sca.Attack.pois_sign = b.attack.Sca.Attack.pois_sign
  && a.attack.Sca.Attack.pois_neg = b.attack.Sca.Attack.pois_neg
  && a.attack.Sca.Attack.pois_pos = b.attack.Sca.Attack.pois_pos

(* --- campaign -------------------------------------------------------------------- *)

(* [Campaign.run_source] on one domain: pull, acquire, grade, tally. *)
let drive tr prof source =
  let ctx = Reveal.Grading.make_ctx ~classifier:(classifier tr prof.Campaign.attack) prof in
  let segmenter = segmenter tr in
  let gate = Campaign.default_gate in
  let per_trace = ref [] and skipped = ref 0 in
  let rec loop () =
    let t0 = Probe.now () in
    match Pipeline.next_item source with
    | `End -> ()
    | `Skip _ ->
        incr skipped;
        loop ()
    | `Item it ->
        let a = span tr "reveal.acquire" it.Pipeline.acquire in
        let results =
          span tr "reveal.grade" (fun () ->
              Reveal.Grading.attack_resilient ~gate ~ctx ~segmenter ?retry:a.Pipeline.remeasure prof
                ~samples:a.Pipeline.samples ~noises:a.Pipeline.noises)
        in
        tr.c.trace_ms <- ((Probe.now () -. t0) *. 1000.0) :: tr.c.trace_ms;
        per_trace := results :: !per_trace;
        loop ()
  in
  Fun.protect ~finally:(fun () -> Pipeline.close_source source) loop;
  let results = Array.concat (List.rev !per_trace) in
  let stats = span tr "reveal.tally" (fun () -> Campaign.stats_of_results ~corrupt_skipped:!skipped prof results) in
  (stats, results)

let campaign tr (env : Workload.env) prof =
  let spec = env.inputs.spec in
  span tr "bench.campaign" (fun () ->
      let source =
        match spec.source with
        | Workload.Live -> live_source tr (machine env.device) ~traces:spec.traces env.inputs.seeds
        | Replay -> replay_source tr env.inputs.attack_archive
      in
      let stats, results = drive tr prof source in
      let hints = span tr "reveal.tally" (fun () -> Workload.hint_ladder prof results) in
      let bikz_no, bikz_with = Workload.integrate { Workload.span = (fun name f -> span tr name f) } hints in
      { Workload.stats; results; hints; bikz_no; bikz_with })
