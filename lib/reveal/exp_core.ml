type config = {
  seed : int64;
  device_n : int;
  per_value : int;
  attack_traces : int;
}

let default = { seed = 0xD47EL; device_n = 256; per_value = 400; attack_traces = 20 }
let paper_scale = { seed = 0xD47EL; device_n = 1024; per_value = 7600; attack_traces = 25 }
let golden_config = { seed = 0xD47EL; device_n = 64; per_value = 80; attack_traces = 2 }

type env = {
  config : config;
  device : Device.t;
  prof : Campaign.profile;
  stats : Campaign.stats;
  results : Campaign.coefficient_result array;
}

let prepare config =
  let rng = Mathkit.Prng.create ~seed:config.seed () in
  let device = Device.create ~n:config.device_n () in
  let prof = Campaign.profile ~per_value:config.per_value device rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let stats, results =
    Campaign.run_attacks_resilient prof device ~traces:config.attack_traces ~scope_rng ~sampler_rng
  in
  { config; device; prof; stats; results }

let env_stats env = env.stats
let env_profile env = env.prof

let small_campaign ?(variant = Riscv.Sampler_prog.Vulnerable) ?synth ?cycle_model ?poi_count config rng =
  let n = min config.device_n 128 in
  let device = Device.create ~variant ?synth ?cycle_model ~n () in
  let per_value = min config.per_value 200 in
  let prof = Campaign.profile ~per_value ?poi_count device rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  if variant = Riscv.Sampler_prog.Shuffled then begin
    (* shuffled sampling order: attack the windows in sampled order *)
    let perm = Array.init n (fun i -> i) in
    Mathkit.Prng.shuffle sampler_rng perm;
    (prof, Campaign.attack_trace prof (Device.run_shuffled device ~scope_rng ~sampler_rng ~perm))
  end
  else begin
    let _, results =
      Campaign.run_attacks_resilient prof device ~traces:(max 2 (config.attack_traces / 4)) ~scope_rng
        ~sampler_rng
    in
    (prof, results)
  end

(* A complete instrumented campaign under the deterministic logical
   clock: profile, attack resiliently, integrate hints — every stage
   span and metric lands in a memory sink whose rendered summary is
   byte-reproducible (single worker domain, fixed seed).  Pinned as a
   golden and shown in the README. *)
let obs_golden_config = { seed = 0xD47EL; device_n = 64; per_value = 40; attack_traces = 2 }

let obs_summary_demo config =
  let sink, drain = Obs.Sink.memory () in
  let obs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~sink () in
  let rng = Mathkit.Prng.create ~seed:config.seed () in
  let device = Device.create ~n:config.device_n () in
  let prof = Campaign.profile ~per_value:config.per_value ~domains:1 ~obs device rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let _stats, results =
    Campaign.run_attacks_resilient ~obs ~domains:1 prof device ~traces:config.attack_traces ~scope_rng
      ~sampler_rng
  in
  let hints =
    Sink.hints_of_results results (Array.length results) (fun i r ->
        Campaign.hint_of_result ~sigma:prof.Campaign.sigma ~coordinate:i r)
  in
  let (_ : Sink.security_report) = Sink.security_of_hints ~obs hints in
  Obs.Ctx.close obs;
  match Obs.Summary.of_records (drain ()) with
  | Ok s -> Obs.Summary.render s
  | Error e -> failwith ("Experiment.obs_summary_demo: " ^ e)

let accuracies results =
  let sign_ok = ref 0 and value_ok = ref 0 and total = ref 0 in
  Array.iter
    (fun r ->
      incr total;
      if compare r.Campaign.actual 0 = r.Campaign.verdict.Sca.Attack.sign then incr sign_ok;
      if r.Campaign.actual = r.Campaign.verdict.Sca.Attack.value then incr value_ok)
    results;
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 !total) in
  (pct !sign_ok, pct !value_ok)
