(* The three campaign workloads, the generator that derives every input
   from the workload seed, and the untraced campaign that end-to-end
   metrics are measured on.  The library only ever sees generated
   inputs: devices, generator seeds and archive paths. *)

module Campaign = Reveal.Campaign
module Prng = Mathkit.Prng

type source = Live | Replay

(* A wrapper around one layer call: a span in the traced run, a timer
   or nothing elsewhere. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

type spec = {
  name : string;
  n : int;  (** coefficients per trace *)
  per_value : int;  (** profiling windows per candidate value *)
  traces : int;  (** attacked traces per campaign *)
  fault : float option;  (** fault intensity on the attacked device *)
  source : source;
  setups : int;  (** setup repetitions per run; setup_s is their median *)
}

let paper = Reveal.Experiment.paper_scale
let default = Reveal.Experiment.default

let specs ~toy =
  let size n per_value traces = if toy then (64, 60, 2) else (n, per_value, traces) in
  let live_n, live_pv, live_t = size paper.device_n paper.per_value paper.attack_traces in
  (* a profiling archive of 2000 windows per value: 58 runs, ~200 MB *)
  let rep_n, rep_pv, rep_t = size 1024 2000 paper.attack_traces in
  let flt_n, flt_pv, flt_t = size default.device_n default.per_value default.attack_traces in
  [
    {
      name = "live-paper";
      n = live_n;
      per_value = live_pv;
      traces = live_t;
      fault = None;
      source = Live;
      setups = 2;
    };
    {
      name = "replay-1024";
      n = rep_n;
      per_value = rep_pv;
      traces = rep_t;
      fault = None;
      source = Replay;
      setups = 3;
    };
    {
      name = "faulted-256";
      n = flt_n;
      per_value = flt_pv;
      traces = flt_t;
      fault = Some 0.5;
      source = Live;
      setups = 5;
    };
  ]

let find ~toy name = List.find_opt (fun s -> s.name = name) (specs ~toy)

(* --- generator --------------------------------------------------------------- *)

(* Every generator seed a workload consumes, drawn in a fixed order from
   the one workload seed. *)
type seeds = { profile : int64; scope : int64; sampler : int64 }

let derive seed =
  let g = Prng.create ~seed:(Int64.of_int seed) () in
  let profile = Prng.bits64 g in
  let scope = Prng.bits64 g in
  let sampler = Prng.bits64 g in
  { profile; scope; sampler }

type inputs = {
  spec : spec;
  seeds : seeds;
  profiling_archive : string;  (** replay only *)
  attack_archive : string;  (** replay only *)
  encode_s : float;  (** archive writes during generation *)
}

let clean_device spec = Reveal.Device.create ~n:spec.n ()

(* The profiling archive is written as [Campaign.record_profiling]
   writes it — same calibration draw, run seeds and metadata — with the
   simulation untimed and only the archive writes timed. *)
let record_profiling ~encode spec seeds path =
  let device = clean_device spec in
  let rng = Prng.create ~seed:seeds.profile () in
  let values = Reveal.Constants.default_values in
  let copies, runs = Reveal.Profiling.profiling_shape ~values ~per_value:spec.per_value device in
  let threshold = Reveal.Profiling.calibrate_threshold device rng in
  let run_seeds = Array.init runs (fun _ -> Prng.bits64 rng) in
  let meta =
    [
      (Reveal.Constants.meta_kind_key, "profiling");
      (Reveal.Constants.meta_threshold_key, Printf.sprintf "%Lx" (Int64.bits_of_float threshold));
      (Reveal.Constants.meta_values_key, String.concat "," (List.map string_of_int (Array.to_list values)));
      (Reveal.Constants.meta_per_value_key, string_of_int spec.per_value);
    ]
  in
  let writer = encode.span "traceio.encode" (fun () -> Reveal.Device.open_recorder ~meta device ~path ~seed:seeds.profile) in
  Fun.protect
    ~finally:(fun () -> encode.span "traceio.encode" (fun () -> Traceio.Archive.close_writer writer))
    (fun () ->
      Array.iter
        (fun s ->
          let run = Reveal.Profiling.profiling_run device ~values ~copies s in
          encode.span "traceio.encode" (fun () -> Reveal.Device.record_run writer run))
        run_seeds)

(* The attack archive: [Device.record]'s capture loop, writes timed. *)
let record_attack ~encode spec seeds path =
  let device = clean_device spec in
  let scope_rng = Prng.create ~seed:seeds.scope () in
  let sampler_rng = Prng.create ~seed:seeds.sampler () in
  let writer = encode.span "traceio.encode" (fun () -> Reveal.Device.open_recorder device ~path ~seed:seeds.scope) in
  Fun.protect
    ~finally:(fun () -> encode.span "traceio.encode" (fun () -> Traceio.Archive.close_writer writer))
    (fun () ->
      for _ = 1 to spec.traces do
        let run = Reveal.Device.run_gaussian device ~scope_rng ~sampler_rng in
        encode.span "traceio.encode" (fun () -> Reveal.Device.record_run writer run)
      done)

let generate ~work_dir spec seed =
  let seeds = derive seed in
  let profiling_archive = Filename.concat work_dir (spec.name ^ "-profiling.rvt") in
  let attack_archive = Filename.concat work_dir (spec.name ^ "-attack.rvt") in
  let encode_s = ref 0.0 in
  let encode =
    {
      span =
        (fun _ f ->
          let v, dt = Probe.time f in
          encode_s := !encode_s +. dt;
          v);
    }
  in
  (match spec.source with
  | Live -> ()
  | Replay ->
      record_profiling ~encode spec seeds profiling_archive;
      record_attack ~encode spec seeds attack_archive);
  { spec; seeds; profiling_archive; attack_archive; encode_s = !encode_s }

let remove_archives inputs =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ inputs.profiling_archive; inputs.attack_archive ]

(* --- setup ------------------------------------------------------------------- *)

type env = {
  inputs : inputs;
  device : Reveal.Device.t;  (** the attacked device (faulted when the spec says so) *)
  prof : Campaign.profile;
}

let attacked_device spec device =
  match spec.fault with
  | None -> device
  | Some x -> Reveal.Device.with_fault device (Some (Power.Fault.of_intensity x))

(* Device build plus template profiling — everything before the first
   attacked trace.  Profiling is always fault-free. *)
let setup inputs =
  let spec = inputs.spec in
  let device = clean_device spec in
  let prof =
    match spec.source with
    | Live -> Campaign.profile ~per_value:spec.per_value device (Prng.create ~seed:inputs.seeds.profile ())
    | Replay -> Campaign.profile_of_archive inputs.profiling_archive
  in
  { inputs; device = attacked_device spec device; prof }

(* --- hints ------------------------------------------------------------------- *)

(* The hint ladder over the 1024 error coordinates of SEAL-128. *)
let hint_ladder prof results =
  Reveal.Sink.hints_of_results results Reveal.Sink.lwe_instance.Hints.Lwe.m (fun i r ->
      Campaign.hint_of_result ~sigma:prof.Campaign.sigma ~coordinate:i r)

(* Hint integration and the two bikz estimates, as
   [Reveal.Sink.security_of_hints] runs them. *)
let integrate s hints =
  let dbdd = s.span "hints.integrate" (fun () -> Hints.Dbdd.create Reveal.Sink.lwe_instance) in
  let bikz_no = s.span "hints.estimate" (fun () -> Hints.Dbdd.estimate_bikz dbdd) in
  s.span "hints.integrate" (fun () -> Hints.Hint.apply_all dbdd hints);
  let bikz_with = s.span "hints.estimate" (fun () -> Hints.Dbdd.estimate_bikz dbdd) in
  (bikz_no, bikz_with)

(* --- outcome ------------------------------------------------------------------ *)

type outcome = {
  stats : Campaign.stats;
  results : Campaign.coefficient_result array;
  hints : Hints.Hint.t list;
  bikz_no : float;
  bikz_with : float;
}

let grade_code = function Campaign.Confident -> 0 | Tentative -> 1 | SignOnly -> 2 | Unknown -> 3
let recovery_code = function Campaign.Clean -> 0 | Retried k -> k | Unrecoverable -> -1

(* Per-coefficient results digest: every verdict, posterior bit pattern,
   grade and recovery tag, then the hint census and both estimates. *)
let digest o =
  let b = Buffer.create (1 lsl 20) in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  let add_dist = Array.iter (fun (v, p) -> add_int v; add_float p) in
  Array.iter
    (fun (r : Campaign.coefficient_result) ->
      add_int r.actual;
      add_int r.verdict.Sca.Attack.sign;
      add_int r.verdict.Sca.Attack.value;
      add_dist r.verdict.Sca.Attack.posterior;
      add_dist r.posterior_all;
      add_int (grade_code r.grade);
      add_int (recovery_code r.recovery))
    o.results;
  let perfect, approximate, none = Hints.Hint.kind_counts o.hints in
  List.iter add_int [ perfect; approximate; none ];
  add_float o.bikz_no;
  add_float o.bikz_with;
  Digest.to_hex (Digest.string (Buffer.contents b))

let attempted spec = spec.n * spec.traces

(* Coefficients lost to skipped records: attempted but never graded. *)
let lost spec o = attempted spec - Array.length o.results

(* A failed coefficient attack is a misgrade (Confident with the wrong
   sign) or a lost coefficient; an Unknown grade is an honest
   non-answer and not a failure. *)
let failed spec o = Campaign.confident_mismatches o.results + lost spec o

let frac a b = float_of_int a /. float_of_int (max 1 b)

(* --- the untraced campaign ------------------------------------------------------ *)

(* Acquisition through bikz via the public campaign drivers, with no
   domain count passed, as the CLI runs them. *)
let campaign env =
  let spec = env.inputs.spec and seeds = env.inputs.seeds in
  let stats, results =
    match spec.source with
    | Live ->
        Campaign.run_attacks_resilient env.prof env.device ~traces:spec.traces
          ~scope_rng:(Prng.create ~seed:seeds.scope ())
          ~sampler_rng:(Prng.create ~seed:seeds.sampler ())
    | Replay -> Campaign.attack_archive env.prof env.inputs.attack_archive
  in
  let hints = hint_ladder env.prof results in
  let bikz_no, bikz_with = integrate untimed hints in
  { stats; results; hints; bikz_no; bikz_with }
