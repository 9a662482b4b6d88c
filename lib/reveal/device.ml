type t = {
  variant : Riscv.Sampler_prog.variant;
  synth : Power.Synth.config;
  cycle_model : (Riscv.Inst.klass -> int) option;
  n : int;
  program : Riscv.Asm.program;
  fault : Power.Fault.config option;
}

let seal_moduli = [| 132120577 |]
let layout = Riscv.Sampler_prog.default_layout

let create ?(variant = Riscv.Sampler_prog.Vulnerable) ?(synth = Power.Synth.default) ?cycle_model ?fault ~n () =
  if n <= 0 then invalid_arg "Device.create: n must be positive";
  {
    variant;
    synth;
    cycle_model;
    n;
    fault;
    (* one trailing dummy coefficient: every real coefficient's window
       is then delimited by a following distribution-call burst, so the
       last real window segments like all the others *)
    program = Riscv.Sampler_prog.build ~variant ~n:(n + 1) ~k:(Array.length seal_moduli) ();
  }

let n t = t.n
let variant t = t.variant
let moduli _ = Array.copy seal_moduli
let synth_config t = t.synth

let with_fault t fault = { t with fault }
let fault_config t = t.fault

type run = {
  trace : Power.Ptrace.t;
  noises : int array;
  poly : int array array;
}

(* One RAM per domain, cleared before every run to what
   [Memory.create] returns, so a run allocates no RAM and sees nothing
   of the last one.  It never leaves [execute]: [read_poly] copies the
   result out.  Domains never share it. *)
let ram_key = Domain.DLS.new_key (fun () -> Riscv.Memory.create layout.Riscv.Sampler_prog.ram_size)

let execute t ~scope_rng ~draws ~perm =
  if Array.length draws <> t.n then invalid_arg "Device: draw queue length must equal n";
  let draws = Array.append draws [| (0, 0) |] in
  let mem = Domain.DLS.get ram_key in
  Riscv.Memory.clear mem;
  Riscv.Memory.load_program mem 0 t.program.Riscv.Asm.words;
  Riscv.Sampler_prog.stage_moduli mem layout seal_moduli;
  (match perm with
  | Some p ->
      if t.variant <> Riscv.Sampler_prog.Shuffled then invalid_arg "Device: permutation needs the Shuffled variant";
      if Array.length p <> t.n then invalid_arg "Device: permutation length must equal n";
      Riscv.Sampler_prog.stage_permutation mem layout (Array.append p [| t.n |])
  | None ->
      (* Profiling runs on the adversary's clone use the identity
         order (they control the device); honest victim runs must go
         through run_shuffled with a secret permutation. *)
      if t.variant = Riscv.Sampler_prog.Shuffled then
        Riscv.Sampler_prog.stage_permutation mem layout (Array.init (t.n + 1) (fun i -> i)));
  (match t.variant with
  | Riscv.Sampler_prog.Cdt_table ->
      (* a CDT device consumes (uniform, sign) entropy; the draw queue
         still carries the intended values, which profiling forces into
         the matching CDF band *)
      let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
      Riscv.Sampler_prog.stage_cdt_table mem (Riscv.Sampler_prog.cdt_thresholds ~sigma);
      let force_rng = Mathkit.Prng.split scope_rng in
      let entropy =
        Array.map (fun (v, _) -> Riscv.Sampler_prog.cdt_force_draw force_rng ~sigma ~value:v) draws
      in
      Riscv.Sampler_prog.install_cdt_port mem ~draws:entropy
  | _ -> Riscv.Sampler_prog.install_noise_port mem ~draws);
  let acc = Power.Synth.accumulator ~rng:scope_rng t.synth in
  let tracer = Power.Synth.feed acc in
  let cpu =
    match t.cycle_model with
    | Some cm -> Riscv.Cpu.create ~tracer ~cycle_model:cm mem
    | None -> Riscv.Cpu.create ~tracer mem
  in
  ignore (Riscv.Cpu.run ~max_steps:(200 * t.n * 64) cpu);
  let trace = Power.Synth.finish acc in
  let trace =
    (* a no-op fault must leave the clean path bit-identical: no RNG
       split, no trace rebuild *)
    match t.fault with
    | Some f when not (Power.Fault.is_noop f) -> Power.Fault.apply ~rng:(Mathkit.Prng.split scope_rng) f trace
    | _ -> trace
  in
  {
    trace;
    noises = Array.map fst (Array.sub draws 0 t.n);
    poly =
      Array.map
        (fun plane -> Array.sub plane 0 t.n)
        (Riscv.Sampler_prog.read_poly mem layout ~n:(t.n + 1) ~k:(Array.length seal_moduli));
  }

let run t ~scope_rng ~draws = execute t ~scope_rng ~draws ~perm:None

let run_gaussian t ~scope_rng ~sampler_rng =
  let draws =
    match t.variant with
    | Riscv.Sampler_prog.Cdt_table ->
        (* honest CDT draws: values follow the table's distribution *)
        let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
        let _, noises = Riscv.Sampler_prog.cdt_draws_of_gaussian sampler_rng ~sigma ~count:t.n in
        Array.map (fun v -> (v, 0)) noises
    | _ -> fst (Riscv.Sampler_prog.draws_of_gaussian sampler_rng Mathkit.Gaussian.seal_default ~count:t.n)
  in
  execute t ~scope_rng ~draws ~perm:None

let run_shuffled t ~scope_rng ~sampler_rng ~perm =
  let draws, _ = Riscv.Sampler_prog.draws_of_gaussian sampler_rng Mathkit.Gaussian.seal_default ~count:t.n in
  execute t ~scope_rng ~draws ~perm:(Some perm)

(* Honest timing: the rejection count of one real clipped draw.  The
   device does not enter the draw. *)
let profiling_draw _ rng ~value =
  (value, snd (Mathkit.Gaussian.clipped_draw (Mathkit.Gaussian.polar ()) rng Mathkit.Gaussian.seal_default))

(* --- recording ------------------------------------------------------------ *)

let open_recorder ?meta ?obs t ~path ~seed =
  Traceio.Archive.open_writer ?meta ?obs ~variant:t.variant ~n:t.n ~seed
    ~samples_per_cycle:t.synth.Power.Synth.samples_per_cycle ~noise_sigma:t.synth.Power.Synth.noise_sigma path

let record_run writer run = Traceio.Archive.append writer ~noises:run.noises run.trace

let record ?(obs = Obs.Ctx.disabled) t ~path ~seed ~traces ~scope_rng ~sampler_rng =
  if traces < 0 then invalid_arg "Device.record: traces must be non-negative";
  let writer = open_recorder ~obs t ~path ~seed in
  Fun.protect
    ~finally:(fun () -> Traceio.Archive.close_writer writer)
    (fun () ->
      Obs.Ctx.span obs "device.record" (fun () ->
          for _ = 1 to traces do
            let run =
              match t.variant with
              | Riscv.Sampler_prog.Shuffled ->
                  let perm = Array.init t.n (fun i -> i) in
                  Mathkit.Prng.shuffle sampler_rng perm;
                  run_shuffled t ~scope_rng ~sampler_rng ~perm
              | _ -> run_gaussian t ~scope_rng ~sampler_rng
            in
            record_run writer run
          done))

let of_header (h : Traceio.Archive.header) =
  let synth =
    {
      Power.Synth.default with
      Power.Synth.samples_per_cycle = h.Traceio.Archive.samples_per_cycle;
      noise_sigma = h.Traceio.Archive.noise_sigma;
    }
  in
  create ~variant:h.Traceio.Archive.variant ~synth ~n:h.Traceio.Archive.n ()
