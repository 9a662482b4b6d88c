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
  let samples = Array.make (total_cycles * spc) 0.0 in
  let event_start = Array.make (Array.length events) 0 in
  let event_pc = Array.make (Array.length events) 0 in
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
          samples.(!pos) <- level *. shape ~samples_per_cycle:spc i;
          incr pos
        done
      done)
    events;
  (match rng with
  | Some g when config.noise_sigma > 0.0 ->
      let polar = Mathkit.Gaussian.polar () in
      for i = 0 to Array.length samples - 1 do
        samples.(i) <- samples.(i) +. Mathkit.Gaussian.normal polar g ~mu:0.0 ~sigma:config.noise_sigma
      done
  | _ -> ());
  { Ptrace.samples; samples_per_cycle = spc; event_start; event_pc }

(* [synthesize] into a caller-owned vector (batch synthesis reuses one
   buffer across traces).  Sample arithmetic and noise-draw order are
   identical to [synthesize] — a bit-identity test pins this — but the
   event tables, which batch scoring never reads, are not built.
   Returns the number of samples written (a prefix of [out]). *)
let synthesize_into ?rng config events ~out =
  if config.samples_per_cycle <= 0 then invalid_arg "Synth: samples_per_cycle must be positive";
  (match (rng, config.noise_sigma > 0.0) with
  | None, true -> invalid_arg "Synth.synthesize: noisy synthesis needs an explicit rng"
  | _ -> ());
  let spc = config.samples_per_cycle in
  let total_cycles = Array.fold_left (fun acc e -> acc + e.Riscv.Trace.cycles) 0 events in
  let n = total_cycles * spc in
  if Mathkit.Fvec.length out < n then
    invalid_arg
      (Printf.sprintf "Synth.synthesize_into: %d samples to write but the output holds only %d" n
         (Mathkit.Fvec.length out));
  (* The write loops run over the [0, n) prefix: validate it once, then
     write through the raw primitives (a per-sample checked accessor
     would be a cross-module call without flambda). *)
  let buf = Mathkit.Fvec.buffer out and off = Mathkit.Fvec.offset out in
  Mathkit.Fvec.check_range buf ~off ~len:n "Synth.synthesize_into";
  let pos = ref 0 in
  Array.iter
    (fun e ->
      let first = Leakage.of_event config.model e in
      let rest = Leakage.residual config.model e in
      for c = 0 to e.Riscv.Trace.cycles - 1 do
        let level = if c = 0 then first else rest in
        for i = 0 to spc - 1 do
          (* srclint: allow unsafe-index pos stays under n, the range check_range'd above *)
          Bigarray.Array1.unsafe_set buf (off + !pos) (level *. shape ~samples_per_cycle:spc i);
          incr pos
        done
      done)
    events;
  (match rng with
  | Some g when config.noise_sigma > 0.0 ->
      let polar = Mathkit.Gaussian.polar () in
      for i = 0 to n - 1 do
        let j = off + i in
        (* srclint: allow unsafe-index i stays in [0,n), the range check_range'd above *)
        let cur = Bigarray.Array1.unsafe_get buf j in
        let noisy = cur +. Mathkit.Gaussian.normal polar g ~mu:0.0 ~sigma:config.noise_sigma in
        (* srclint: allow unsafe-index i stays in [0,n), the range check_range'd above *)
        Bigarray.Array1.unsafe_set buf j noisy
      done
  | _ -> ());
  n
