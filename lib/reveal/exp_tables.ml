open Exp_core

(* --- figures ------------------------------------------------------------ *)

type fig3 = {
  full_portion : float array;
  bursts : (int * int) array;
  sub_zero : float array;
  sub_pos : float array;
  sub_neg : float array;
}

let fig3 config =
  let rng = Mathkit.Prng.create ~seed:config.seed () in
  let device = Device.create ~n:3 () in
  (* the three iterations of Fig. 3: noise = 0, > 0, < 0 *)
  let run = Device.run device ~scope_rng:rng ~draws:[| (0, 1); (4, 0); (-5, 2) |] in
  let samples = run.Device.trace.Power.Ptrace.samples in
  let seg = Sca.Segment.default in
  let view = Mathkit.Fvec.of_array samples in
  let bursts = Sca.Segment.burst_regions_fv seg view in
  let wins = Sca.Segment.windows_fv seg view in
  if Array.length wins < 4 then failwith "Experiment.fig3: segmentation failed";
  let sub i =
    let w = wins.(i) in
    Array.sub samples w.Sca.Segment.start (min 220 (w.Sca.Segment.stop - w.Sca.Segment.start))
  in
  {
    full_portion = samples;
    bursts = Array.map (fun b -> (b.Sca.Segment.start, b.Sca.Segment.stop)) bursts;
    sub_zero = sub 0;
    sub_pos = sub 1;
    sub_neg = sub 2;
  }

let fig3_doc f =
  let text =
    let buf = Buffer.create 8192 in
    Buffer.add_string buf "Fig. 3 (a): power trace of three coefficient samplings\n";
    Buffer.add_string buf
      (Printf.sprintf "peaks (distribution calls) at sample ranges: %s\n"
         (String.concat ", " (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) f.bursts))));
    Buffer.add_string buf (Power.Ptrace.ascii_plot ~height:14 f.full_portion);
    Buffer.add_string buf "\nFig. 3 (b): branch sub-traces (control flow differs per case)\n";
    Buffer.add_string buf "--- noise = 0 ---\n";
    Buffer.add_string buf (Power.Ptrace.ascii_plot ~height:8 f.sub_zero);
    Buffer.add_string buf "--- noise > 0 ---\n";
    Buffer.add_string buf (Power.Ptrace.ascii_plot ~height:8 f.sub_pos);
    Buffer.add_string buf "--- noise < 0 ---\n";
    Buffer.add_string buf (Power.Ptrace.ascii_plot ~height:8 f.sub_neg);
    Buffer.contents buf
  in
  let json =
    Obs.Json.Obj
      [
        ("samples", Obs.Json.Int (Array.length f.full_portion));
        ( "bursts",
          Obs.Json.List
            (Array.to_list (Array.map (fun (a, b) -> Obs.Json.List [ Obs.Json.Int a; Obs.Json.Int b ]) f.bursts)) );
        ("sub_zero_samples", Obs.Json.Int (Array.length f.sub_zero));
        ("sub_pos_samples", Obs.Json.Int (Array.length f.sub_pos));
        ("sub_neg_samples", Obs.Json.Int (Array.length f.sub_neg));
      ]
  in
  { Report.text; json }

(* --- Table I -------------------------------------------------------------- *)

let sign_accuracy_percent (s : Campaign.stats) =
  100.0 *. float_of_int s.Campaign.sign_correct /. float_of_int (max 1 s.Campaign.sign_total)

let value_accuracy_percent (s : Campaign.stats) =
  100.0 *. float_of_int s.Campaign.value_correct /. float_of_int (max 1 s.Campaign.value_total)

let table1_doc env =
  let s = env.stats in
  let text =
    let buf = Buffer.create 8192 in
    Buffer.add_string buf "Table I: attack success percentages per actual coefficient (columns sum to 100)\n";
    Buffer.add_string buf (Sca.Confusion.render s.Campaign.confusion);
    Buffer.add_string buf
      (Printf.sprintf "\nsign accuracy: %.2f%% (%d/%d)   value accuracy: %.2f%% (%d/%d)\n"
         (sign_accuracy_percent s) s.Campaign.sign_correct s.Campaign.sign_total (value_accuracy_percent s)
         s.Campaign.value_correct s.Campaign.value_total);
    Buffer.contents buf
  in
  let json =
    let c = s.Campaign.confusion in
    let lo = -7 and hi = 7 in
    let range = List.init (hi - lo + 1) (fun i -> lo + i) in
    let columns =
      List.map
        (fun actual ->
          Obs.Json.Obj
            [
              ("actual", Obs.Json.Int actual);
              ( "percent_predicted",
                Obs.Json.Obj
                  (List.map
                     (fun predicted ->
                       (string_of_int predicted, Obs.Json.Float (Sca.Confusion.column_percent c ~actual ~predicted)))
                     range) );
            ])
        range
    in
    Obs.Json.Obj
      [
        ("confusion_columns", Obs.Json.List columns);
        ("sign_correct", Obs.Json.Int s.Campaign.sign_correct);
        ("sign_total", Obs.Json.Int s.Campaign.sign_total);
        ("sign_accuracy_percent", Obs.Json.Float (sign_accuracy_percent s));
        ("value_correct", Obs.Json.Int s.Campaign.value_correct);
        ("value_total", Obs.Json.Int s.Campaign.value_total);
        ("value_accuracy_percent", Obs.Json.Float (value_accuracy_percent s));
      ]
  in
  { Report.text; json }

(* --- Table II -------------------------------------------------------------- *)

type table2_row = {
  secret : int;
  probabilities : (int * float) array;
  centered : float;
  variance : float;
}

let table2 env =
  (* one example row per secret in -2..2, as the paper prints *)
  let wanted = [ 0; 1; -1; 2; -2 ] in
  List.filter_map
    (fun s ->
      let found = Array.to_list env.results |> List.find_opt (fun r -> r.Campaign.actual = s) in
      Option.map
        (fun r ->
          let post = r.Campaign.posterior_all in
          let probabilities = Array.to_list post |> List.filter (fun (v, _) -> v >= -2 && v <= 2) |> Array.of_list in
          {
            secret = s;
            probabilities;
            centered = Hints.Hint.centered_mean post;
            variance = Hints.Hint.variance post;
          })
        found)
    wanted

let table2_probability_cell row v =
  let p = Array.to_list row.probabilities |> List.assoc_opt v |> Option.value ~default:0.0 in
  if p > 0.999 then "        ~1" else if p < 1e-12 then "         0" else Printf.sprintf "  %8.2e" p

let table2_columns =
  [
    Report.icol ~heading:"secret" ~key:"secret" ~fmt:"%6d |" (fun r -> r.secret);
    Report.column
      ~heading:" |        -2        -1         0         1         2"
      ~key:"probabilities"
      ~cell:(fun r -> String.concat "" (List.map (table2_probability_cell r) [ -2; -1; 0; 1; 2 ]))
      ~value:(fun r ->
        Obs.Json.Obj
          (List.map
             (fun v ->
               ( string_of_int v,
                 Obs.Json.Float (Array.to_list r.probabilities |> List.assoc_opt v |> Option.value ~default:0.0) ))
             [ -2; -1; 0; 1; 2 ]));
    Report.fcol ~heading:" |  centered" ~key:"centered" ~fmt:" | %9.3f" (fun r -> r.centered);
    Report.fcol ~heading:"  variance" ~key:"variance" ~fmt:" %9.2e" (fun r -> r.variance);
  ]

let table2_doc rows =
  Report.table ~title:"Table II: guessing probabilities derived from selected measurements\n"
    ~header:"secret |        -2        -1         0         1         2 |  centered  variance\n" table2_columns rows

(* --- Tables III / IV --------------------------------------------------------- *)

type table3_report = {
  paper_mode : Sink.security_report;
  calibrated : Sink.security_report;
}

let table3 env =
  let calibrated =
    Sink.security_of_hints
      (Sink.hints_of_results env.results Sink.lwe_instance.Hints.Lwe.m (fun i r ->
           Hints.Hint.of_posterior ~coordinate:i r.Campaign.posterior_all))
  in
  (* Paper mode: the authors note their per-measurement probabilities
     round to 1 (or 0) in floating point, so the framework integrates
     essentially every measurement as a perfect hint. *)
  let paper_mode =
    Sink.security_of_hints
      (Sink.hints_of_results env.results Sink.lwe_instance.Hints.Lwe.m (fun i r ->
           { Hints.Hint.coordinate = i; kind = Hints.Hint.Perfect r.Campaign.verdict.Sca.Attack.value }))
  in
  { paper_mode; calibrated }

let table3_doc r =
  let text =
    Printf.sprintf
      "Table III: cost of attack with/without hints, SEAL-128 (q=132120577, n=1024, sigma=3.2)\n\
      \  attack without hints:                 %8.2f bikz  (~2^%.1f)   [paper: 382.25 bikz / 2^128]\n\
      \  attack with hints (paper pipeline):   %8.2f bikz  (~2^%.1f)   [paper:  12.20 bikz / 2^4.4]\n\
      \  attack with hints (calibrated):       %8.2f bikz  (~2^%.1f)   (honest posterior variances)\n\
      \  calibrated hints: %d perfect, %d approximate\n"
      r.paper_mode.bikz_no_hints r.paper_mode.bits_no_hints r.paper_mode.bikz_with_hints
      r.paper_mode.bits_with_hints r.calibrated.bikz_with_hints r.calibrated.bits_with_hints
      r.calibrated.perfect_hints r.calibrated.approximate_hints
  in
  let json =
    Obs.Json.Obj
      [ ("paper_mode", Sink.json_of_security r.paper_mode); ("calibrated", Sink.json_of_security r.calibrated) ]
  in
  { Report.text; json }

type table4_report = {
  base : Sink.security_report;
  bikz_with_guess : float;
  guesses : int;
  guess_success_probability : float;
  ladder : Hints.Hint.ladder_step list;
}

let table4 env =
  let sigma = env.prof.Campaign.sigma in
  let hint_list =
    Sink.hints_of_results env.results Sink.lwe_instance.Hints.Lwe.m (fun i r ->
        Hints.Hint.sign_hint ~sigma ~coordinate:i r.Campaign.verdict.Sca.Attack.sign)
  in
  let base = Sink.security_of_hints hint_list in
  (* one extra guess: the most likely value given only the sign is
     +-1; its success probability is the conditional prior mass *)
  let dbdd = Hints.Dbdd.create Sink.lwe_instance in
  Hints.Hint.apply_all dbdd hint_list;
  let first_nonzero =
    Array.to_list env.results
    |> List.mapi (fun i r -> (i, r))
    |> List.find_opt (fun (i, r) -> i < Sink.lwe_instance.Hints.Lwe.m && r.Campaign.verdict.Sca.Attack.sign <> 0)
  in
  (* extension: a full guess ladder driven by the value posteriors *)
  let ladder =
    let dbdd_ladder = Hints.Dbdd.create Sink.lwe_instance in
    let value_hints =
      Sink.hints_of_results env.results Sink.lwe_instance.Hints.Lwe.m (fun i r ->
          Hints.Hint.of_posterior ~coordinate:i r.Campaign.posterior_all)
    in
    Hints.Hint.apply_all dbdd_ladder value_hints;
    Hints.Hint.guess_ladder dbdd_ladder value_hints ~max_guesses:16
  in
  match first_nonzero with
  | None -> { base; bikz_with_guess = base.bikz_with_hints; guesses = 0; guess_success_probability = 0.0; ladder }
  | Some (i, _) ->
      Hints.Dbdd.perfect_hint dbdd i;
      let p1 = Mathkit.Gaussian.discrete_probability ~sigma 1 in
      let p_pos =
        let acc = ref 0.0 in
        for z = 1 to 41 do
          acc := !acc +. Mathkit.Gaussian.discrete_probability ~sigma z
        done;
        !acc
      in
      {
        base;
        bikz_with_guess = Hints.Dbdd.estimate_bikz dbdd;
        guesses = 1;
        guess_success_probability = p1 /. p_pos;
        ladder;
      }

let table4_doc r =
  let text =
    let head =
      Printf.sprintf
        "Table IV: cost of attack using ONLY the branch vulnerability, SEAL-128\n\
        \  attack without hints:        %8.2f bikz   [paper: 382.25]\n\
        \  attack with sign hints:      %8.2f bikz   [paper: 253.29]\n\
        \  attack with hints & guesses: %8.2f bikz   [paper: 252.83]\n\
        \  number of guesses: %d   success probability: %.0f%%   [paper: 1 guess, 20%%]\n\
        \  => signs alone cannot recover the message (2^%.1f remains)\n"
        r.base.bikz_no_hints r.base.bikz_with_hints r.bikz_with_guess r.guesses
        (100.0 *. r.guess_success_probability)
        (Hints.Bkz_model.security_bits r.base.bikz_with_hints)
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf head;
    Buffer.add_string buf "  extension - guess ladder on the FULL attack's posteriors ([31]'s hints & guesses):\n";
    List.iteri
      (fun i step ->
        if i = 0 || (i + 1) mod 4 = 0 then
          Buffer.add_string buf
            (Printf.sprintf "    %2d guesses: success %5.1f%%  -> %7.2f bikz\n" step.Hints.Hint.guesses
               (100.0 *. step.Hints.Hint.success_probability)
               step.Hints.Hint.bikz))
      r.ladder;
    Buffer.contents buf
  in
  let json =
    Obs.Json.Obj
      [
        ("base", Sink.json_of_security r.base);
        ("bikz_with_guess", Obs.Json.Float r.bikz_with_guess);
        ("guesses", Obs.Json.Int r.guesses);
        ("guess_success_probability", Obs.Json.Float r.guess_success_probability);
        ( "ladder",
          Obs.Json.List
            (List.map
               (fun (step : Hints.Hint.ladder_step) ->
                 Obs.Json.Obj
                   [
                     ("guesses", Obs.Json.Int step.Hints.Hint.guesses);
                     ("success_probability", Obs.Json.Float step.Hints.Hint.success_probability);
                     ("bikz", Obs.Json.Float step.Hints.Hint.bikz);
                   ])
               r.ladder) );
      ]
  in
  { Report.text; json }
