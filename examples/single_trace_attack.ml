(* The RevEAL attack, end to end, narrated.

   A victim encrypts a message on a RISC-V device running SEAL v3.2's
   sampler; the adversary captures ONE power trace of that encryption
   and walks the paper's four steps:
     1. segment the trace into per-coefficient windows (peaks),
     2. read the sign of each coefficient from the branch taken,
     3. recover values with the template attack (vulns 2+3),
     4. feed the posteriors to the LWE-with-hints estimator.

   Run with:  dune exec examples/single_trace_attack.exe *)

let () =
  let rng = Mathkit.Prng.create ~seed:0xA77ACCL () in
  let n = 128 in

  (* --- the victim's device and message ------------------------------- *)
  let params = Bfv.Params.create ~n ~coeff_modulus:[ 132120577 ] ~plain_modulus:256 in
  let ctx = Bfv.Rq.context params in
  let sk = Bfv.Keygen.secret_key rng ctx in
  let pk = Bfv.Keygen.public_key rng ctx sk in
  let message =
    Bfv.Keys.plaintext_of_coeffs params
      (Array.init n (fun i -> Char.code "ATTACK AT DAWN. ".[i mod 16]))
  in
  ignore sk;

  (* --- step 0: the adversary profiles an identical device ------------- *)
  Printf.printf "[profiling] building templates on the adversary's clone device...\n%!";
  let profiling_device = Reveal.Device.create ~n:128 () in
  let prof = Reveal.Campaign.profile ~per_value:300 profiling_device rng in
  Printf.printf "[profiling] window length %d samples, POIs selected by SOST\n"
    prof.Reveal.Campaign.window_length;

  (* --- the victim encrypts; ONE trace is captured --------------------- *)
  let device = Reveal.Device.create ~n:(2 * n) () in
  (* one encryption = 2n noise samplings (e1 then e2) *)
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let run = Reveal.Device.run_gaussian device ~scope_rng ~sampler_rng in
  Printf.printf "[victim] encryption executed; scope captured %d samples\n"
    (Power.Ptrace.length run.Reveal.Device.trace);
  let e1_true = Array.sub run.Reveal.Device.noises 0 n in
  let e2_true = Array.sub run.Reveal.Device.noises n n in
  let u = Bfv.Rq.ternary rng ctx in
  let c =
    Bfv.Encryptor.encrypt_with ctx pk message
      {
        Bfv.Encryptor.u;
        e1 = Bfv.Sampler.of_noises ctx e1_true;
        e2 = Bfv.Sampler.of_noises ctx e2_true;
        e1_log = { Bfv.Sampler.noises = e1_true; rejections = Array.make n 0 };
        e2_log = { Bfv.Sampler.noises = e2_true; rejections = Array.make n 0 };
      }
  in

  (* --- steps 1-3: segment, classify signs and values ------------------ *)
  let results = Reveal.Campaign.attack_trace prof run in
  let sign_ok = ref 0 and value_ok = ref 0 in
  Array.iter
    (fun r ->
      if compare r.Reveal.Campaign.actual 0 = r.Reveal.Campaign.verdict.Sca.Attack.sign then incr sign_ok;
      if r.Reveal.Campaign.actual = r.Reveal.Campaign.verdict.Sca.Attack.value then incr value_ok)
    results;
  Printf.printf "[attack] signs recovered:  %d / %d\n" !sign_ok (2 * n);
  Printf.printf "[attack] values recovered: %d / %d\n" !value_ok (2 * n);

  (* --- direct recovery attempt (eq. 3) -------------------------------- *)
  let guessed = Array.map (fun r -> r.Reveal.Campaign.verdict.Sca.Attack.value) results in
  (match
     Bfv.Recover.recover_with_noises ctx pk c ~e1_noises:(Array.sub guessed 0 n)
       ~e2_noises:(Array.sub guessed n n)
   with
  | Some m' when Bfv.Keys.plaintext_equal message m' ->
      print_endline "[attack] eq. (3) on the raw guesses: MESSAGE RECOVERED OUTRIGHT"
  | _ -> print_endline "[attack] raw guesses insufficient alone -> fall back to LWE with hints");

  (* --- step 4: residual hardness via DBDD ------------------------------ *)
  let lwe = Hints.Lwe.seal_128_1024 in
  let paper_mode = Hints.Dbdd.create lwe and calibrated = Hints.Dbdd.create lwe in
  let before = Hints.Dbdd.estimate_bikz paper_mode in
  for coord = 0 to lwe.Hints.Lwe.m - 1 do
    let r = results.(n + (coord mod n)) in
    Hints.Dbdd.perfect_hint paper_mode coord;
    Hints.Hint.apply calibrated (Hints.Hint.of_posterior ~coordinate:coord r.Reveal.Campaign.posterior_all)
  done;
  Printf.printf "[hints] SEAL-128 hardness without side channel: %.1f bikz (~2^%.0f)\n" before
    (Hints.Bkz_model.security_bits before);
  Printf.printf "[hints] after the single-trace attack:          %.1f bikz (~2^%.1f)  (paper pipeline)\n"
    (Hints.Dbdd.estimate_bikz paper_mode)
    (Hints.Bkz_model.security_bits (Hints.Dbdd.estimate_bikz paper_mode));
  Printf.printf "[hints]                                         %.1f bikz (~2^%.1f)  (calibrated posteriors)\n"
    (Hints.Dbdd.estimate_bikz calibrated)
    (Hints.Bkz_model.security_bits (Hints.Dbdd.estimate_bikz calibrated));

  (* --- sanity: the algebra is exact with the true noise ---------------- *)
  match Bfv.Recover.recover_with_noises ctx pk c ~e1_noises:e1_true ~e2_noises:e2_true with
  | Some m' when Bfv.Keys.plaintext_equal message m' ->
      print_endline "[check] with the true e1,e2 the message decodes exactly (eq. 3 verified)"
  | _ -> failwith "eq. (3) sanity check failed"
