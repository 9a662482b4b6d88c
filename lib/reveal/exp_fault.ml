open Exp_core

(* --- fault sweep --------------------------------------------------------------------- *)

type fault_sweep_row = {
  intensity : float;
  recovery_rate : float;
  sign_accuracy : float;
  value_accuracy : float;
  confident : int;
  tentative : int;
  sign_only : int;
  unknown : int;
  retried : int;
  unrecoverable : int;
  perfect_hints : int;
  approximate_hints : int;
  none_hints : int;
  graded_bikz : float;
}

(* The sweep's campaign: one fault-free device and profile, and an
   [attack dev] that runs the same traces from the same attack seeds on
   any fault variant of that device.  The sweep and the zero-intensity
   check both attack through it, so the check tests the sweep's own
   campaign. *)
let sweep_campaign config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 89L) () in
  let device = Device.create ~n:(min config.device_n 128) () in
  let prof = Campaign.profile ~per_value:(min config.per_value 200) device rng in
  let attack dev =
    Campaign.run_attacks_resilient prof dev
      ~traces:(max 2 (config.attack_traces / 4))
      ~scope_rng:(Mathkit.Prng.create ~seed:(Int64.add config.seed 97L) ())
      ~sampler_rng:(Mathkit.Prng.create ~seed:(Int64.add config.seed 101L) ())
  in
  (device, prof, attack)

(* All intensities share one fault-free profile and the same attack
   seeds: the only thing that varies along the sweep is the fault load
   on the attacked device, so the curves measure fault tolerance and
   nothing else. *)
let fault_sweep ?(intensities = [| 0.0; 0.25; 0.5; 0.75; 1.0 |]) config =
  let device, prof, attack = sweep_campaign config in
  Array.to_list intensities
  |> List.map (fun intensity ->
         let fault = if intensity = 0.0 then None else Some (Power.Fault.of_intensity intensity) in
         let stats, results = attack (Device.with_fault device fault) in
         let confident, tentative, sign_only, unknown = Campaign.grade_counts results in
         let retried = ref 0 and unrecoverable = ref 0 in
         Array.iter
           (fun r ->
             match r.Campaign.recovery with
             | Campaign.Retried _ -> incr retried
             | Campaign.Unrecoverable -> incr unrecoverable
             | Campaign.Clean -> ())
           results;
         let hints =
           Sink.hints_of_results results Sink.lwe_instance.Hints.Lwe.m (fun i r ->
               Campaign.hint_of_result ~sigma:prof.Campaign.sigma ~coordinate:i r)
         in
         let perfect_hints, approximate_hints, none_hints = Hints.Hint.kind_counts hints in
         let sec = Sink.security_of_hints hints in
         let total = max 1 (Array.length results) in
         {
           intensity;
           recovery_rate = float_of_int (confident + tentative) /. float_of_int total;
           sign_accuracy =
             100.0 *. float_of_int stats.Campaign.sign_correct /. float_of_int (max 1 stats.Campaign.sign_total);
           value_accuracy =
             100.0 *. float_of_int stats.Campaign.value_correct /. float_of_int (max 1 stats.Campaign.value_total);
           confident;
           tentative;
           sign_only;
           unknown;
           retried = !retried;
           unrecoverable = !unrecoverable;
           perfect_hints;
           approximate_hints;
           none_hints;
           graded_bikz = sec.Sink.bikz_with_hints;
         })

let fault_sweep_columns =
  [
    Report.fcol ~heading:"  intensity" ~key:"intensity" ~fmt:"  %9.2f" (fun r -> r.intensity);
    Report.column ~heading:"  recovery%" ~key:"recovery_rate"
      ~cell:(fun r -> Printf.sprintf "  %8.1f" (100.0 *. r.recovery_rate))
      ~value:(fun r -> Obs.Json.Float r.recovery_rate);
    Report.fcol ~heading:"  sign%" ~key:"sign_accuracy" ~fmt:"  %5.1f" (fun r -> r.sign_accuracy);
    Report.fcol ~heading:"   value%" ~key:"value_accuracy" ~fmt:"   %5.1f" (fun r -> r.value_accuracy);
    Report.icol ~heading:"   conf" ~key:"confident" ~fmt:"   %4d" (fun r -> r.confident);
    Report.icol ~heading:"  tent" ~key:"tentative" ~fmt:"  %4d" (fun r -> r.tentative);
    Report.icol ~heading:"  sign" ~key:"sign_only" ~fmt:"  %4d" (fun r -> r.sign_only);
    Report.icol ~heading:"  unk" ~key:"unknown" ~fmt:"  %4d" (fun r -> r.unknown);
    Report.icol ~heading:"   retried" ~key:"retried" ~fmt:"   %7d" (fun r -> r.retried);
    Report.icol ~heading:"  unrec" ~key:"unrecoverable" ~fmt:"  %5d" (fun r -> r.unrecoverable);
    Report.column ~heading:"   hints(P/A/-)" ~key:"hints"
      ~cell:(fun r -> Printf.sprintf "   %4d/%4d/%4d" r.perfect_hints r.approximate_hints r.none_hints)
      ~value:(fun r ->
        Obs.Json.Obj
          [
            ("perfect", Obs.Json.Int r.perfect_hints);
            ("approximate", Obs.Json.Int r.approximate_hints);
            ("none", Obs.Json.Int r.none_hints);
          ]);
    Report.fcol ~heading:"      bikz" ~key:"bikz" ~fmt:"  %8.2f" (fun r -> r.graded_bikz);
  ]

let fault_sweep_doc rows =
  Report.table ~title:"Fault sweep: graceful degradation under measurement faults\n"
    ~header:"  intensity  recovery%  sign%   value%   conf  tent  sign  unk   retried  unrec   hints(P/A/-)      bikz\n"
    ~footer:
      "(recovery = coefficients graded Confident or Tentative; bikz rises as hints degrade\n\
      \ along the ladder perfect -> approximate -> sign-only -> none)\n"
    fault_sweep_columns rows

(* The two properties the sweep must honour: recovery degrades
   monotonically with intensity, and the reported hardness never drops
   below the clean run's (degradation must not make the attack look
   stronger).  Small tolerances absorb grade flips of individual
   borderline coefficients. *)
let fault_sweep_check rows =
  match rows with
  | [] -> Error "fault sweep produced no rows"
  | first :: _ ->
      let problems = ref [] in
      let rec walk = function
        | a :: (b :: _ as rest) ->
            if b.recovery_rate > a.recovery_rate +. 0.02 then
              problems :=
                Printf.sprintf "recovery rate rises from %.3f (intensity %.2f) to %.3f (intensity %.2f)"
                  a.recovery_rate a.intensity b.recovery_rate b.intensity
                :: !problems;
            walk rest
        | _ -> ()
      in
      walk rows;
      List.iter
        (fun r ->
          if r.graded_bikz < first.graded_bikz -. 0.5 then
            problems :=
              Printf.sprintf "bikz %.2f at intensity %.2f under-reports hardness vs clean run (%.2f)" r.graded_bikz
                r.intensity first.graded_bikz
              :: !problems)
        rows;
      (match !problems with [] -> Ok () | ps -> Error (String.concat "; " (List.rev ps)))

(* --- zero-fault regression ------------------------------------------------------------- *)

type zero_consistency = {
  coefficients : int;
  verdict_mismatches : int;
  grade_downgrades : int;  (* no-op-fault coefficients graded SignOnly/Unknown *)
  bikz_ungated : float;
  bikz_graded : float;
}

(* The acceptance gate for the whole fault-tolerance stack: a no-op
   fault model must reproduce the fault-free device bit for bit (same
   verdicts), grade nothing below Tentative, and the graded hint
   ladder must give the bikz of the ungated one (every posterior
   integrated as measured). *)
let fault_zero_consistency config =
  let device, prof, attack = sweep_campaign config in
  let _, clean = attack device in
  (* thread an explicit no-op fault config through the device to also
     exercise the is_noop short-circuit *)
  let _, noop = attack (Device.with_fault device (Some Power.Fault.none)) in
  if Array.length clean <> Array.length noop then
    failwith "Experiment.fault_zero_consistency: result counts differ";
  let mism = ref 0 and downgrades = ref 0 in
  Array.iteri
    (fun i c ->
      let r = noop.(i) in
      if
        c.Campaign.actual <> r.Campaign.actual
        || c.Campaign.verdict.Sca.Attack.value <> r.Campaign.verdict.Sca.Attack.value
        || c.Campaign.verdict.Sca.Attack.sign <> r.Campaign.verdict.Sca.Attack.sign
      then incr mism;
      match r.Campaign.grade with
      | Campaign.SignOnly | Campaign.Unknown -> incr downgrades
      | Campaign.Confident | Campaign.Tentative -> ())
    clean;
  let bikz results mk =
    (Sink.security_of_hints (Sink.hints_of_results results Sink.lwe_instance.Hints.Lwe.m mk)).Sink.bikz_with_hints
  in
  {
    coefficients = Array.length clean;
    verdict_mismatches = !mism;
    grade_downgrades = !downgrades;
    bikz_ungated = bikz clean (fun i r -> Hints.Hint.of_posterior ~coordinate:i r.Campaign.posterior_all);
    bikz_graded = bikz noop (fun i r -> Campaign.hint_of_result ~sigma:prof.Campaign.sigma ~coordinate:i r);
  }

let zero_consistency_doc z =
  let text =
    Printf.sprintf
      "Zero-fault regression: no-op fault model vs fault-free device over %d coefficients\n\
      \  verdict mismatches: %d (must be 0)\n\
      \  grades below Tentative: %d (must be 0 for bikz equality)\n\
      \  bikz ungated %.4f vs graded %.4f (must match)\n"
      z.coefficients z.verdict_mismatches z.grade_downgrades z.bikz_ungated z.bikz_graded
  in
  let json =
    Obs.Json.Obj
      [
        ("coefficients", Obs.Json.Int z.coefficients);
        ("verdict_mismatches", Obs.Json.Int z.verdict_mismatches);
        ("grade_downgrades", Obs.Json.Int z.grade_downgrades);
        ("bikz_ungated", Obs.Json.Float z.bikz_ungated);
        ("bikz_graded", Obs.Json.Float z.bikz_graded);
      ]
  in
  { Report.text; json }
