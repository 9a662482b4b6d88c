open Exp_core

(* --- supporting experiments ---------------------------------------------------- *)

type sign_report = { correct : int; total : int; accuracy_percent : float }

let signs env =
  let s = env.stats in
  {
    correct = s.Campaign.sign_correct;
    total = s.Campaign.sign_total;
    accuracy_percent = 100.0 *. float_of_int s.Campaign.sign_correct /. float_of_int (max 1 s.Campaign.sign_total);
  }

let signs_doc r =
  let text =
    Printf.sprintf "Sign recovery: %d/%d = %.2f%%   [paper: 100%%]\n" r.correct r.total r.accuracy_percent
  in
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Int r.correct);
        ("total", Obs.Json.Int r.total);
        ("accuracy_percent", Obs.Json.Float r.accuracy_percent);
      ]
  in
  { Report.text; json }

type recovery_report = {
  n : int;
  coefficients_total : int;
  coefficients_exact : int;
  message_recovered_exactly : bool;
  residual_bikz : float;
  expected_wrong : float;
  log2_full_recovery_probability : float;
}

let recovery config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 17L) () in
  let n = config.device_n in
  let params = Bfv.Params.create ~n ~coeff_modulus:[ 132120577 ] ~plain_modulus:256 in
  let ctx = Bfv.Rq.context params in
  let sk = Bfv.Keygen.secret_key rng ctx in
  let pk = Bfv.Keygen.public_key rng ctx sk in
  let m =
    Bfv.Keys.plaintext_of_coeffs params (Array.init n (fun _ -> Mathkit.Prng.int rng 256))
  in
  (* the device samples e1 then e2 in one encryption: 2n draws *)
  let device = Device.create ~n:(2 * n) () in
  let prof_device = Device.create ~n:(min n 256) () in
  let prof = Campaign.profile ~per_value:(min config.per_value 400) prof_device rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let run = Device.run_gaussian device ~scope_rng ~sampler_rng in
  let e1_true = Array.sub run.Device.noises 0 n and e2_true = Array.sub run.Device.noises n n in
  let u = Bfv.Rq.ternary rng ctx in
  let randomness =
    {
      Bfv.Encryptor.u;
      e1 = Bfv.Sampler.of_noises ctx e1_true;
      e2 = Bfv.Sampler.of_noises ctx e2_true;
      e1_log = { Bfv.Sampler.noises = e1_true; rejections = Array.make n 0 };
      e2_log = { Bfv.Sampler.noises = e2_true; rejections = Array.make n 0 };
    }
  in
  let c = Bfv.Encryptor.encrypt_with ctx pk m randomness in
  (* sanity: the algebra recovers m from the true noise *)
  (match Bfv.Recover.recover_with_noises ctx pk c ~e1_noises:e1_true ~e2_noises:e2_true with
  | Some m' when Bfv.Keys.plaintext_equal m m' -> ()
  | _ -> failwith "Experiment.recovery: eq. (3) sanity check failed");
  (* the attack *)
  let results = Campaign.attack_trace prof run in
  let recovered = Array.map (fun r -> r.Campaign.verdict.Sca.Attack.value) results in
  let exact = ref 0 in
  Array.iteri (fun i v -> if v = run.Device.noises.(i) then incr exact) recovered;
  let e1_rec = Array.sub recovered 0 n and e2_rec = Array.sub recovered n n in
  let recovered_exactly =
    match Bfv.Recover.recover_with_noises ctx pk c ~e1_noises:e1_rec ~e2_noises:e2_rec with
    | Some m' -> Bfv.Keys.plaintext_equal m m'
    | None -> false
  in
  (* residual search space, extrapolated to the full SEAL-128 instance:
     the e2-half posteriors are recycled over the 1024 coordinates *)
  let dbdd = Hints.Dbdd.create Sink.lwe_instance in
  for c = 0 to Sink.lwe_instance.Hints.Lwe.m - 1 do
    let r = results.(n + (c mod n)) in
    Hints.Hint.apply dbdd (Hints.Hint.of_posterior ~coordinate:c r.Campaign.posterior_all)
  done;
  (* posterior-based success accounting: P(correct) per coefficient *)
  let expected_wrong = ref 0.0 and log2_all = ref 0.0 in
  Array.iter
    (fun r ->
      let p_true =
        Array.fold_left
          (fun acc (v, p) -> if v = r.Campaign.actual then acc +. p else acc)
          0.0 r.Campaign.posterior_all
      in
      expected_wrong := !expected_wrong +. (1.0 -. p_true);
      log2_all := !log2_all +. Float.log2 (Float.max p_true 1e-300))
    results;
  {
    n;
    coefficients_total = 2 * n;
    coefficients_exact = !exact;
    message_recovered_exactly = recovered_exactly;
    residual_bikz = Hints.Dbdd.estimate_bikz dbdd;
    expected_wrong = !expected_wrong;
    log2_full_recovery_probability = !log2_all;
  }

let recovery_doc r =
  let text =
    Printf.sprintf
      "End-to-end single-trace recovery (n = %d):\n\
      \  eq.(3) with true e1,e2: message recovered exactly (sanity check passed)\n\
      \  attacked coefficients exactly right: %d / %d (%.1f%%)\n\
      \  plaintext recovered from raw guesses alone: %b\n\
      \  expected wrong coefficients (posterior-based): %.1f; P(all correct) = 2^%.0f\n\
      \  => the lattice stage is what absorbs the residue:\n\
      \  residual search space from posteriors: %.2f bikz (~2^%.1f)\n"
      r.n r.coefficients_exact r.coefficients_total
      (100.0 *. float_of_int r.coefficients_exact /. float_of_int r.coefficients_total)
      r.message_recovered_exactly r.expected_wrong r.log2_full_recovery_probability r.residual_bikz
      (Hints.Bkz_model.security_bits r.residual_bikz)
  in
  let json =
    Obs.Json.Obj
      [
        ("n", Obs.Json.Int r.n);
        ("coefficients_total", Obs.Json.Int r.coefficients_total);
        ("coefficients_exact", Obs.Json.Int r.coefficients_exact);
        ("message_recovered_exactly", Obs.Json.Bool r.message_recovered_exactly);
        ("residual_bikz", Obs.Json.Float r.residual_bikz);
        ("expected_wrong", Obs.Json.Float r.expected_wrong);
        ("log2_full_recovery_probability", Obs.Json.Float r.log2_full_recovery_probability);
      ]
  in
  { Report.text; json }

(* --- toy lattice validation -------------------------------------------------------- *)

type toylattice_row = {
  toy_n : int;
  hints_given : int;
  predicted_bikz : float;
  solved : bool;
}

let toylattice config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 31L) () in
  let polar = Mathkit.Gaussian.polar () in
  let rows = ref [] in
  List.iter
    (fun (toy_n, q) ->
      let md = Mathkit.Modular.modulus q in
      (* ring instance b = p1 * u + e2 over Z_q[x]/(x^n+1) *)
      let p1 = Mathkit.Poly.uniform rng md toy_n in
      let u = Array.init toy_n (fun _ -> Mathkit.Prng.ternary rng) in
      let e2 = Array.init toy_n (fun _ -> int_of_float (Float.round (Mathkit.Gaussian.normal polar rng ~mu:0.0 ~sigma:3.19))) in
      let a = Lattice.Embed.negacyclic_matrix ~q p1 in
      let b =
        Array.init toy_n (fun j ->
            let acc = ref 0 in
            for i = 0 to toy_n - 1 do
              acc := Mathkit.Modular.add md !acc (Mathkit.Modular.mul md a.(j).(i) (Mathkit.Modular.reduce md u.(i)))
            done;
            Mathkit.Modular.add md !acc (Mathkit.Modular.reduce md e2.(j)))
      in
      let inst = { Lattice.Embed.q; a; b } in
      List.iter
        (fun hints_given ->
          let reduced =
            if hints_given = 0 then inst
            else Lattice.Embed.eliminate_perfect inst ~known:(List.init hints_given (fun j -> (j, e2.(j))))
          in
          let solved =
            match Lattice.Embed.solve reduced with
            | Some sol -> sol.Lattice.Embed.error = Array.sub e2 hints_given (toy_n - hints_given)
            | None -> false
          in
          (* estimator prediction for the same shrinkage *)
          let lwe = { Hints.Lwe.n = toy_n; m = toy_n; q; sigma_error = 3.19; sigma_secret = sqrt (2.0 /. 3.0) } in
          let dbdd = Hints.Dbdd.create lwe in
          for i = 0 to hints_given - 1 do
            Hints.Dbdd.perfect_hint dbdd i
          done;
          rows := { toy_n; hints_given; predicted_bikz = Hints.Dbdd.estimate_bikz dbdd; solved } :: !rows)
        [ 0; toy_n / 2 ])
    [ (16, 521); (32, 257); (40, 127) ];
  List.rev !rows

let toylattice_columns =
  [
    Report.icol ~heading:"   n" ~key:"n" ~fmt:"%4d" (fun r -> r.toy_n);
    Report.icol ~heading:"  hints" ~key:"hints" ~fmt:"  %5d" (fun r -> r.hints_given);
    Report.fcol ~heading:"  predicted bikz" ~key:"predicted_bikz" ~fmt:"  %14.1f" (fun r -> r.predicted_bikz);
    Report.column ~heading:"  BKZ-12 solved?" ~key:"solved"
      ~cell:(fun r -> Printf.sprintf "  %s" (if r.solved then "yes" else "no"))
      ~value:(fun r -> Obs.Json.Bool r.solved);
  ]

let toylattice_doc rows =
  Report.table
    ~title:"Estimator vs. solver on toy Ring-LWE (sigma = 3.19, q shrinks as n grows to stay lattice-solvable):\n"
    ~footer:"(hints shrink the instance; estimator and solver must agree on the trend)\n" toylattice_columns rows

(* --- leakage assessment -------------------------------------------------------------- *)

type tvla_row = {
  sampler : string;
  max_t_first_order : float;
  leaky_samples : int;
  max_t_second_order : float;
}

let tvla_windows device rng ~count ~draw =
  (* fixed-length windows of single-coefficient runs *)
  let seg = Sca.Segment.default in
  let raw =
    Array.init count (fun _ ->
        let run = Device.run device ~scope_rng:rng ~draws:[| draw rng |] in
        let samples = run.Device.trace.Power.Ptrace.samples in
        let wins = Sca.Segment.windows_fv seg (Mathkit.Fvec.of_array samples) in
        if Array.length wins < 1 then failwith "Experiment.tvla: no window";
        let w = wins.(0) in
        Array.sub samples w.Sca.Segment.start (w.Sca.Segment.stop - w.Sca.Segment.start))
  in
  let len = Array.fold_left (fun acc w -> min acc (Array.length w)) max_int raw in
  Array.map (fun w -> Array.sub w 0 len) raw

let tvla config =
  List.map
    (fun (variant, name) ->
      let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 71L) () in
      let device = Device.create ~variant ~n:1 () in
      let count = max 100 (config.per_value / 2) in
      let fixed = tvla_windows device rng ~count ~draw:(fun rng -> Device.profiling_draw device rng ~value:5) in
      let random =
        tvla_windows device rng ~count ~draw:(fun rng ->
            Mathkit.Gaussian.clipped_draw (Mathkit.Gaussian.polar ()) rng Mathkit.Gaussian.seal_default)
      in
      let len = min (Array.length fixed.(0)) (Array.length random.(0)) in
      let clip set = Array.map (fun w -> Array.sub w 0 len) set in
      let fixed = clip fixed and random = clip random in
      let t1 = Sca.Tvla.t_statistics fixed random in
      let t2 = Sca.Tvla.second_order fixed random in
      {
        sampler = name;
        max_t_first_order = Sca.Tvla.max_abs_t t1;
        leaky_samples = Array.length (Sca.Tvla.leaky_points t1);
        max_t_second_order = Sca.Tvla.max_abs_t t2;
      })
    [ (Riscv.Sampler_prog.Vulnerable, "SEAL v3.2 (vulnerable)"); (Riscv.Sampler_prog.Branchless, "v3.6-style branchless") ]

let tvla_columns =
  [
    Report.scol ~heading:"  variant" ~key:"variant" ~fmt:"  %-26s" (fun r -> r.sampler);
    Report.fcol ~heading:"max |t| (1st)" ~key:"max_t_first_order" ~fmt:" %12.1f" (fun r -> r.max_t_first_order);
    Report.icol ~heading:"leaky samples" ~key:"leaky_samples" ~fmt:"   %13d" (fun r -> r.leaky_samples);
    Report.fcol ~heading:"max |t| (2nd)" ~key:"max_t_second_order" ~fmt:"   %13.1f" (fun r -> r.max_t_second_order);
    Report.column ~heading:"" ~key:"pass"
      ~cell:(fun r -> if r.max_t_first_order > Sca.Tvla.threshold then "   FAIL" else "   pass")
      ~value:(fun r -> Obs.Json.Bool (r.max_t_first_order <= Sca.Tvla.threshold));
  ]

let tvla_doc rows =
  Report.table ~title:"TVLA (fixed coefficient = 5 vs honest Gaussian), pass level |t| <= 4.5:\n"
    ~header:"  variant                     max |t| (1st)   leaky samples   max |t| (2nd)\n"
    ~footer:
      "(the branchless sampler removes the branches yet still fails TVLA: its mask\n\
      \ arithmetic is data-dependent -- the paper's 'may have a different vulnerability')\n"
    tvla_columns rows

type averaging_row = { traces_averaged : int; value_accuracy : float }

let averaging config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 83L) () in
  let n = min config.device_n 128 in
  let device = Device.create ~n () in
  let prof = Campaign.profile ~per_value:(min config.per_value 200) device rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  (* hypothetical noise-reusing device: the same draw queue measured K
     times with fresh scope noise; windows averaged before matching *)
  let draws, _ = Riscv.Sampler_prog.draws_of_gaussian sampler_rng Mathkit.Gaussian.seal_default ~count:n in
  List.map
    (fun k ->
      let window_sets =
        Array.init k (fun _ ->
            let run = Device.run device ~scope_rng ~draws in
            let samples = Mathkit.Fvec.of_array run.Device.trace.Power.Ptrace.samples in
            let wins = Sca.Segment.windows_fv prof.Campaign.segment samples in
            Array.map Mathkit.Fvec.to_array
              (Sca.Segment.views samples (Array.sub wins 0 n) ~length:prof.Campaign.window_length))
      in
      let averaged =
        Array.init n (fun i ->
            let acc = Array.make prof.Campaign.window_length 0.0 in
            Array.iter (fun set -> Array.iteri (fun t x -> acc.(t) <- acc.(t) +. x) set.(i)) window_sets;
            Array.map (fun x -> x /. float_of_int k) acc)
      in
      let scratch = Sca.Attack.make_scratch prof.Campaign.attack in
      let ok = ref 0 in
      Array.iteri
        (fun i w ->
          let g = Sca.Attack.grade_fv prof.Campaign.attack scratch (Mathkit.Fvec.of_array w) in
          if g.Sca.Attack.g_verdict.Sca.Attack.value = fst draws.(i) then incr ok)
        averaged;
      { traces_averaged = k; value_accuracy = 100.0 *. float_of_int !ok /. float_of_int n })
    [ 1; 4; 16 ]

let averaging_columns =
  [
    Report.icol ~heading:"" ~key:"traces_averaged" ~fmt:"  averaging %2d" (fun r -> r.traces_averaged);
    Report.fcol ~heading:"" ~key:"value_accuracy" ~fmt:" traces: value accuracy %5.1f%%" (fun r -> r.value_accuracy);
  ]

let averaging_doc rows =
  Report.table ~title:"Multi-trace averaging baseline (hypothetical noise-reusing device):\n" ~header:""
    ~footer:
      "(BFV samples fresh noise per encryption, so the real adversary gets K = 1;\n\
      \ this is why the paper's attack is designed to be single-trace)\n"
    averaging_columns rows

(* --- feature-extraction comparison ---------------------------------------------------- *)

type feature_row = { feature_method : string; accuracy : float }

let ablate_features config =
  let rng = Mathkit.Prng.create ~seed:(Int64.add config.seed 67L) () in
  let n = min config.device_n 128 in
  let device = Device.create ~n () in
  let segment, window_length, classes =
    Campaign.profiling_windows ~per_value:(min config.per_value 200) device rng
  in
  (* held-out attack windows with ground truth *)
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let test_windows =
    List.concat
      (List.init 4 (fun _ ->
           let run = Device.run_gaussian device ~scope_rng ~sampler_rng in
           let samples = Mathkit.Fvec.of_array run.Device.trace.Power.Ptrace.samples in
           let wins = Sca.Segment.windows_fv segment samples in
           let vecs = Array.map Mathkit.Fvec.to_array (Sca.Segment.views samples (Array.sub wins 0 n) ~length:window_length) in
           Array.to_list (Array.mapi (fun i w -> (run.Device.noises.(i), w)) vecs)))
  in
  let in_labels = Hashtbl.create 32 in
  List.iter (fun (v, _) -> Hashtbl.replace in_labels v ()) classes;
  let test_windows = List.filter (fun (v, _) -> Hashtbl.mem in_labels v) test_windows in
  let evaluate name project =
    let template = Sca.Template.build ~pois:[||] (List.map (fun (l, rows) -> (l, Array.map project rows)) classes) in
    let scratch = Sca.Template.make_scratch template in
    let classify w = Sca.Template.classify_fv template scratch (Mathkit.Fvec.of_array (project w)) in
    let ok = List.fold_left (fun acc (actual, w) -> if classify w = actual then acc + 1 else acc) 0 test_windows in
    { feature_method = name; accuracy = 100.0 *. float_of_int ok /. float_of_int (List.length test_windows) }
  in
  let class_array = Array.of_list (List.map snd classes) in
  let sost_pois = Sca.Sosd.select ~count:24 (Sca.Sosd.scores_t class_array) in
  let sosd_pois = Sca.Sosd.select ~count:24 (Sca.Sosd.scores class_array) in
  let pca = Sca.Pca.fit ~k:12 classes in
  let corr_pois =
    let rows = List.concat_map (fun (l, ws) -> Array.to_list (Array.map (fun w -> (l, w)) ws)) classes in
    let traces = Array.of_list (List.map snd rows) in
    let labels = Array.of_list (List.map fst rows) in
    Sca.Cpa.correlation_poi ~count:24 traces labels
  in
  [
    evaluate "SOST POIs (default)" (fun w -> Sca.Sosd.pick w sost_pois);
    evaluate "SOSD POIs (paper's cite [30])" (fun w -> Sca.Sosd.pick w sosd_pois);
    evaluate "PCA subspace (k=12)" (Sca.Pca.transform pca);
    evaluate "correlation POIs" (fun w -> Sca.Sosd.pick w corr_pois);
  ]

let features_columns =
  [
    Report.scol ~heading:"" ~key:"feature_method" ~fmt:"  %-32s" (fun r -> r.feature_method);
    Report.fcol ~heading:"" ~key:"value_accuracy" ~fmt:" value accuracy %5.1f%%" (fun r -> r.accuracy);
  ]

let features_doc rows =
  Report.table ~title:"Feature-extraction comparison (flat 29-class templates, same data):\n" ~header:""
    features_columns rows
