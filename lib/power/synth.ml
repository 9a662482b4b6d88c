type config = {
  model : Leakage.t;
  samples_per_cycle : int;
  noise_sigma : float;
}

let default = { model = Leakage.default; samples_per_cycle = 2; noise_sigma = 0.17 }
let quiet = { default with noise_sigma = 0.0 }

(* In-cycle pulse shape: current rises at the clock edge and decays.
   Values for samples_per_cycle = s are shape(0..s-1). *)
let shape ~samples_per_cycle i =
  if samples_per_cycle = 1 then 1.0
  else begin
    let x = float_of_int i /. float_of_int (samples_per_cycle - 1) in
    1.0 +. (0.25 *. (1.0 -. x) *. (1.0 -. x)) -. (0.15 *. x)
  end

let synthesize ?rng config events =
  if config.samples_per_cycle <= 0 then invalid_arg "Synth: samples_per_cycle must be positive";
  (match (rng, config.noise_sigma > 0.0) with
  | None, true -> invalid_arg "Synth.synthesize: noisy synthesis needs an explicit rng"
  | _ -> ());
  let spc = config.samples_per_cycle in
  let total_cycles = Array.fold_left (fun acc e -> acc + e.Riscv.Trace.cycles) 0 events in
  (* uninitialised: the loops below write every sample *)
  let samples = Array.create_float (total_cycles * spc) in
  let event_start = Array.make (Array.length events) 0 in
  let event_pc = Array.make (Array.length events) 0 in
  let shape = Array.init spc (shape ~samples_per_cycle:spc) in
  let pos = ref 0 in
  Array.iteri
    (fun idx e ->
      event_start.(idx) <- !pos;
      event_pc.(idx) <- e.Riscv.Trace.pc;
      let first = Leakage.of_event config.model e in
      let rest = Leakage.residual config.model e in
      for c = 0 to e.Riscv.Trace.cycles - 1 do
        let level = if c = 0 then first else rest in
        for i = 0 to spc - 1 do
          samples.(!pos) <- level *. shape.(i);
          incr pos
        done
      done)
    events;
  (match rng with
  | Some g when config.noise_sigma > 0.0 -> Mathkit.Gaussian.add_normal g ~sigma:config.noise_sigma samples
  | _ -> ());
  { Ptrace.samples; samples_per_cycle = spc; event_start; event_pc }
