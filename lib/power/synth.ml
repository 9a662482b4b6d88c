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

(* Per event, in unboxed columns: the power of its first cycle and of
   the rest, and its latency.  An event record is read as it arrives
   and never kept, so none outlives a minor collection. *)
type columns = { mutable first : float array; mutable rest : float array; mutable cycles : int array }

type acc = {
  config : config;
  rng : Mathkit.Prng.t option;
  mutable count : int;
  mutable total_cycles : int;
  mutable cols : columns;
}

(* Each domain keeps the columns of its last finished accumulator, and
   the next accumulator takes them over, so a run of the same length
   allocates none.  Taking empties the slot: columns have one owner, and
   a run that never finishes only costs the next one fresh columns. *)
let spare_key = Domain.DLS.new_key (fun () -> ref None)

let accumulator ?rng config =
  if config.samples_per_cycle <= 0 then invalid_arg "Synth: samples_per_cycle must be positive";
  (match (rng, config.noise_sigma > 0.0) with
  | None, true -> invalid_arg "Synth.synthesize: noisy synthesis needs an explicit rng"
  | _ -> ());
  let spare = Domain.DLS.get spare_key in
  let cols =
    match !spare with
    | Some c ->
        spare := None;
        c
    | None -> { first = [||]; rest = [||]; cycles = [||] }
  in
  { config; rng; count = 0; total_cycles = 0; cols }

let grow a =
  let size = Int.max 1024 (2 * a.count) and c = a.cols in
  let floats src =
    let dst = Array.create_float size in
    Array.blit src 0 dst 0 a.count;
    dst
  and ints src =
    let dst = Array.make size 0 in
    Array.blit src 0 dst 0 a.count;
    dst
  in
  c.first <- floats c.first;
  c.rest <- floats c.rest;
  c.cycles <- ints c.cycles

let feed a (e : Riscv.Trace.event) =
  if a.count = Array.length a.cols.cycles then grow a;
  let k = a.count and c = a.cols in
  c.first.(k) <- Leakage.of_event a.config.model e;
  c.rest.(k) <- Leakage.residual a.config.model e;
  c.cycles.(k) <- e.cycles;
  a.total_cycles <- a.total_cycles + e.cycles;
  a.count <- k + 1

let finish a =
  let spc = a.config.samples_per_cycle and count = a.count and c = a.cols in
  (* uninitialised: the loops below write every sample *)
  let samples = Array.create_float (a.total_cycles * spc) in
  let shape = Array.init spc (shape ~samples_per_cycle:spc) in
  let pos = ref 0 in
  for idx = 0 to count - 1 do
    let first = c.first.(idx) and rest = c.rest.(idx) in
    for k = 0 to c.cycles.(idx) - 1 do
      let level = if k = 0 then first else rest in
      for i = 0 to spc - 1 do
        samples.(!pos) <- level *. shape.(i);
        incr pos
      done
    done
  done;
  (* the columns go back to the domain; [a] starts over empty *)
  a.count <- 0;
  a.total_cycles <- 0;
  a.cols <- { first = [||]; rest = [||]; cycles = [||] };
  Domain.DLS.get spare_key := Some c;
  (match a.rng with
  | Some g when a.config.noise_sigma > 0.0 -> Mathkit.Gaussian.add_normal g ~sigma:a.config.noise_sigma samples
  | _ -> ());
  { Ptrace.samples; samples_per_cycle = spc }

let synthesize ?rng config events =
  let a = accumulator ?rng config in
  Array.iter (feed a) events;
  finish a
