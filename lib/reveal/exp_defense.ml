open Exp_core

(* --- defenses ------------------------------------------------------------------------ *)

type defense_report = {
  variant : string;
  sign_accuracy : float;
  value_accuracy : float;
  bikz_after_attack : float;
}

let defenses config =
  let run variant name coordinates_known =
    let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 47L) () in
    let prof, results = small_campaign ~variant config rng in
    ignore prof;
    let sign_accuracy, value_accuracy = accuracies results in
    let bikz =
      if coordinates_known then begin
        let dbdd = Hints.Dbdd.create Sink.lwe_instance in
        Array.iteri
          (fun i r ->
            if i < Sink.lwe_instance.Hints.Lwe.m then
              Hints.Hint.apply dbdd (Hints.Hint.of_posterior ~coordinate:i r.Campaign.posterior_all))
          (Array.append results
             (Array.make (max 0 (Sink.lwe_instance.Hints.Lwe.m - Array.length results)) results.(0)));
        Hints.Dbdd.estimate_bikz dbdd
      end
      else Hints.Lwe.no_hint_bikz Sink.lwe_instance
    in
    { variant = name; sign_accuracy; value_accuracy; bikz_after_attack = bikz }
  in
  [
    run Riscv.Sampler_prog.Vulnerable "SEAL v3.2 (vulnerable)" true;
    run Riscv.Sampler_prog.Branchless "v3.6-style branchless" true;
    run Riscv.Sampler_prog.Shuffled "shuffled sampling order" false;
    run Riscv.Sampler_prog.Cdt_table "constant-time CDT sampler" true;
  ]

let defense_columns =
  [
    Report.scol ~heading:"  variant" ~key:"variant" ~fmt:"  %-26s" (fun r -> r.variant);
    Report.fcol ~heading:"sign%" ~key:"sign_accuracy" ~fmt:" %6.1f" (fun r -> r.sign_accuracy);
    Report.fcol ~heading:"value%" ~key:"value_accuracy" ~fmt:"   %6.1f" (fun r -> r.value_accuracy);
    Report.fcol ~heading:"residual bikz" ~key:"residual_bikz" ~fmt:"   %10.1f" (fun r -> r.bikz_after_attack);
  ]

let defenses_doc rows =
  Report.table ~title:"Countermeasure study (Section V-A):\n"
    ~header:"  variant                      sign%   value%   residual bikz\n"
    ~footer:
      "(shuffling voids the coordinate hints; the branchless sampler removes the control-flow\n\
      \ leak but its mask arithmetic still leaks data -> 'may have a different vulnerability';\n\
      \ the CDT sampler -- prior work's target [10][12] -- leaks less but is not leak-free)\n"
    defense_columns rows

(* --- ablations ----------------------------------------------------------------------- *)

type ablation_row = { label : string; sign_accuracy : float; value_accuracy : float }

let ablate_leakage config =
  List.map
    (fun (label, model) ->
      let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 53L) () in
      let synth = { Power.Synth.default with Power.Synth.model } in
      let _, results = small_campaign ~synth config rng in
      let sign_accuracy, value_accuracy = accuracies results in
      { label; sign_accuracy; value_accuracy })
    [
      ("HW + HD (default)", Power.Leakage.default);
      ("HW only", Power.Leakage.hw_only);
      ("HD only", Power.Leakage.hd_only);
    ]

let ablate_noise config =
  List.map
    (fun sigma ->
      let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 59L) () in
      let synth = { Power.Synth.default with Power.Synth.noise_sigma = sigma } in
      let _, results = small_campaign ~synth config rng in
      let sign_accuracy, value_accuracy = accuracies results in
      { label = Printf.sprintf "scope noise sigma = %.2f" sigma; sign_accuracy; value_accuracy })
    [ 0.05; 0.17; 0.35; 0.7; 1.4 ]

let ablate_poi config =
  List.map
    (fun poi_count ->
      let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 61L) () in
      let _, results = small_campaign ~poi_count config rng in
      let sign_accuracy, value_accuracy = accuracies results in
      { label = Printf.sprintf "%2d POIs per template" poi_count; sign_accuracy; value_accuracy })
    [ 4; 8; 16; 24; 32 ]

let ablate_timing config =
  let picorv32 = Riscv.Cpu.cycles_of_class in
  let uniform4 = fun (_ : Riscv.Inst.klass) -> 4 in
  let slow_div k = match k with Riscv.Inst.K_div -> 64 | other -> picorv32 other in
  let fast_div k = match k with Riscv.Inst.K_div -> 12 | other -> picorv32 other in
  List.map
    (fun (label, cycle_model) ->
      let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 73L) () in
      let _, results = small_campaign ~cycle_model config rng in
      let sign_accuracy, value_accuracy = accuracies results in
      { label; sign_accuracy; value_accuracy })
    [
      ("PicoRV32 latencies (default)", picorv32);
      ("slow bit-serial divider (64)", slow_div);
      ("fast divider (12 cycles)", fast_div);
      ("uniform 4-cycle machine", uniform4);
    ]

let ablation_columns =
  [
    Report.scol ~heading:"  setting" ~key:"setting" ~fmt:"  %-28s" (fun r -> r.label);
    Report.fcol ~heading:"sign%" ~key:"sign_accuracy" ~fmt:" %6.1f" (fun r -> r.sign_accuracy);
    Report.fcol ~heading:"value%" ~key:"value_accuracy" ~fmt:"   %6.1f" (fun r -> r.value_accuracy);
  ]

let ablation_doc ~title rows =
  Report.table
    ~title:(Printf.sprintf "Ablation: %s\n" title)
    ~header:"  setting                        sign%   value%\n" ablation_columns rows
