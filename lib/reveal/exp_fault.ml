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

(* All intensities share one fault-free profile and the same attack
   seeds: the only thing that varies along the sweep is the fault load
   on the attacked device, so the curves measure fault tolerance and
   nothing else. *)
let fault_sweep ?(intensities = [| 0.0; 0.25; 0.5; 0.75; 1.0 |]) config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 89L) () in
  let n = min config.device_n 128 in
  let device = Device.create ~n () in
  let prof = Campaign.profile ~per_value:(min config.per_value 200) device rng in
  let traces = max 2 (config.attack_traces / 4) in
  Array.to_list intensities
  |> List.map (fun intensity ->
         let fault = if intensity = 0.0 then None else Some (Power.Fault.of_intensity intensity) in
         let dev = Device.with_fault device fault in
         let scope_rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 97L) () in
         let sampler_rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 101L) () in
         let stats, results = Campaign.run_attacks_resilient prof dev ~traces ~scope_rng ~sampler_rng in
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
      ~value:(fun r -> Report.Float r.recovery_rate);
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
        Report.Obj
          [
            ("perfect", Report.Int r.perfect_hints);
            ("approximate", Report.Int r.approximate_hints);
            ("none", Report.Int r.none_hints);
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
  grade_downgrades : int;  (* resilient coefficients graded SignOnly/Unknown *)
  bikz_classic : float;
  bikz_graded : float;
}

(* The acceptance gate for the whole fault-tolerance stack: with no
   fault model installed, the resilient pipeline must reproduce the
   classic one bit for bit — same verdicts, same bikz. *)
let fault_zero_consistency config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 89L) () in
  let n = min config.device_n 128 in
  let device = Device.create ~n () in
  let prof = Campaign.profile ~per_value:(min config.per_value 200) device rng in
  let traces = max 2 (config.attack_traces / 4) in
  let seeds () =
    ( Mathkit.Prng.create ~seed:(Int64.add config.seed 97L) (),
      Mathkit.Prng.create ~seed:(Int64.add config.seed 101L) () )
  in
  let scope_rng, sampler_rng = seeds () in
  let _, classic = Campaign.run_attacks prof device ~traces ~scope_rng ~sampler_rng in
  (* thread an explicit no-op fault config through the device to also
     exercise the is_noop short-circuit *)
  let scope_rng, sampler_rng = seeds () in
  let _, resilient =
    Campaign.run_attacks_resilient prof
      (Device.with_fault device (Some Power.Fault.none))
      ~traces ~scope_rng ~sampler_rng
  in
  if Array.length classic <> Array.length resilient then
    failwith "Experiment.fault_zero_consistency: result counts differ";
  let mism = ref 0 and downgrades = ref 0 in
  Array.iteri
    (fun i c ->
      let r = resilient.(i) in
      if
        c.Campaign.actual <> r.Campaign.actual
        || c.Campaign.verdict.Sca.Attack.value <> r.Campaign.verdict.Sca.Attack.value
        || c.Campaign.verdict.Sca.Attack.sign <> r.Campaign.verdict.Sca.Attack.sign
      then incr mism;
      match r.Campaign.grade with
      | Campaign.SignOnly | Campaign.Unknown -> incr downgrades
      | Campaign.Confident | Campaign.Tentative -> ())
    classic;
  let bikz results mk =
    (Sink.security_of_hints (Sink.hints_of_results results Sink.lwe_instance.Hints.Lwe.m mk)).Sink.bikz_with_hints
  in
  {
    coefficients = Array.length classic;
    verdict_mismatches = !mism;
    grade_downgrades = !downgrades;
    bikz_classic = bikz classic (fun i r -> Hints.Hint.of_posterior ~coordinate:i r.Campaign.posterior_all);
    bikz_graded =
      bikz resilient (fun i r -> Campaign.hint_of_result ~sigma:prof.Campaign.sigma ~coordinate:i r);
  }

let zero_consistency_doc z =
  let text =
    Printf.sprintf
      "Zero-fault regression: resilient pipeline vs classic pipeline over %d coefficients\n\
      \  verdict mismatches: %d (must be 0)\n\
      \  grades below Tentative: %d (must be 0 for bikz equality)\n\
      \  bikz classic %.4f vs graded %.4f (must match)\n"
      z.coefficients z.verdict_mismatches z.grade_downgrades z.bikz_classic z.bikz_graded
  in
  let json =
    Report.Obj
      [
        ("coefficients", Report.Int z.coefficients);
        ("verdict_mismatches", Report.Int z.verdict_mismatches);
        ("grade_downgrades", Report.Int z.grade_downgrades);
        ("bikz_classic", Report.Float z.bikz_classic);
        ("bikz_graded", Report.Float z.bikz_graded);
      ]
  in
  { Report.text; json }
