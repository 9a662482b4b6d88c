(* BFV scheme correctness and the attack algebra. *)

open Bfv

let rng () = Mathkit.Prng.create ~seed:2024L ()

let toy_ctx () = Rq.context (Params.toy ())

let fresh_keys g ctx =
  let sk = Keygen.secret_key g ctx in
  let pk = Keygen.public_key g ctx sk in
  (sk, pk)

let random_plaintext g params =
  Keys.plaintext_of_coeffs params
    (Array.init params.Params.n (fun _ -> Mathkit.Prng.int g params.Params.plain_modulus))

(* --- Params ------------------------------------------------------------ *)

let test_params_seal () =
  let p = Params.seal_128_1024 in
  Alcotest.(check int) "n" 1024 p.Params.n;
  Alcotest.(check int) "q" 132120577 p.Params.coeff_modulus.(0);
  Alcotest.(check string) "total modulus" "132120577" (Mathkit.Bignum.to_string (Params.total_modulus p));
  (* sigma = 8/sqrt(2 pi) =~ 3.19 *)
  Alcotest.(check bool) "sigma" true (Float.abs (p.Params.noise.Mathkit.Gaussian.sigma -. 3.19) < 0.01)

let test_params_delta () =
  let p = Params.toy () in
  let delta = Params.delta p in
  let q = Params.total_modulus p in
  let t = Mathkit.Bignum.of_int p.Params.plain_modulus in
  (* Delta = floor(q/t): q - Delta*t < t *)
  let diff = Mathkit.Bignum.sub q (Mathkit.Bignum.mul delta t) in
  Alcotest.(check bool) "floor division" true (Mathkit.Bignum.compare diff t < 0)

let test_params_rejects_bad () =
  Alcotest.(check bool) "non-pow2 n" true
    (try
       ignore (Params.create ~n:100 ~coeff_modulus:[ 132120577 ] ~plain_modulus:256);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-friendly prime" true
    (try
       ignore (Params.create ~n:1024 ~coeff_modulus:[ 97 ] ~plain_modulus:17);
       false
     with Invalid_argument _ -> true)

(* --- Rq ------------------------------------------------------------------ *)

let test_rq_centered_roundtrip () =
  let ctx = toy_ctx () in
  let g = rng () in
  for _ = 1 to 50 do
    let coeffs = Array.init 16 (fun _ -> Mathkit.Prng.int_in g (-41) 41) in
    let x = Rq.of_centered ctx coeffs in
    Alcotest.(check (array int)) "roundtrip" coeffs (Rq.to_centered_small ctx x)
  done

let test_rq_add_neg () =
  let ctx = toy_ctx () in
  let g = rng () in
  let x = Rq.uniform g ctx in
  Alcotest.(check bool) "x + (-x) = 0" true (Rq.equal (Rq.zero ctx) (Rq.add ctx x (Rq.neg ctx x)))

let test_rq_mul_matches_schoolbook () =
  let ctx = toy_ctx () in
  let g = rng () in
  let md = (Rq.moduli ctx).(0) in
  for _ = 1 to 10 do
    let a = Rq.uniform g ctx and b = Rq.uniform g ctx in
    let c = Rq.mul ctx a b in
    let expected = Mathkit.Poly.mul_schoolbook md a.Rq.planes.(0) b.Rq.planes.(0) in
    Alcotest.(check bool) "plane product" true (c.Rq.planes.(0) = expected)
  done

let test_rq_invert () =
  let ctx = toy_ctx () in
  let g = rng () in
  let rec find_invertible () =
    let a = Rq.uniform g ctx in
    match Rq.invert ctx a with Some ai -> (a, ai) | None -> find_invertible ()
  in
  let a, ai = find_invertible () in
  let one = Rq.of_centered ctx (Array.init 16 (fun i -> if i = 0 then 1 else 0)) in
  Alcotest.(check bool) "a * a^-1 = 1" true (Rq.equal one (Rq.mul ctx a ai))

let test_rq_multi_plane_consistency () =
  (* multi-prime context: centered lift must agree across planes *)
  let params = Params.create ~n:32 ~coeff_modulus:[ 12289; 786433 ] ~plain_modulus:64 in
  let ctx = Rq.context params in
  let coeffs = Array.init 32 (fun i -> (i mod 7) - 3) in
  let x = Rq.of_centered ctx coeffs in
  Alcotest.(check (array int)) "centered across CRT" coeffs (Rq.to_centered_small ctx x)

(* --- Sampler --------------------------------------------------------------- *)

let test_sampler_v32_assignment () =
  let ctx = toy_ctx () in
  let q = (Rq.moduli ctx).(0).Mathkit.Modular.value in
  let noises = [| 3; -5; 0; 41; -41; 1; -1; 0; 2; -2; 7; -9; 0; 11; -3; 4 |] in
  let poly = Sampler.of_noises ctx noises in
  Array.iteri
    (fun i z ->
      let expected = if z > 0 then z else if z < 0 then q + z else 0 in
      Alcotest.(check int) (Printf.sprintf "coeff %d" i) expected poly.Rq.planes.(0).(i))
    noises

let test_sampler_log_matches_poly () =
  let ctx = toy_ctx () in
  let g = rng () in
  let poly, log = Sampler.set_poly_coeffs_normal_v32 g ctx in
  Alcotest.(check bool) "of_noises reproduces" true (Rq.equal poly (Sampler.of_noises ctx log.Sampler.noises));
  Alcotest.(check (array int)) "centered = noises" log.Sampler.noises (Rq.to_centered_small ctx poly)

(* BFV's v3.2 sampler and the device model make the same clipped-normal
   draw: from one seed, the encryptor's log and the firmware's MMIO
   queue carry the same noises and rejection counts, and the firmware,
   run on that queue with the toy modulus staged the way Reveal.Device
   stages SEAL's (one trailing dummy coefficient), writes the BFV
   polynomial. *)
let test_sampler_matches_device_queue () =
  let params = Params.toy () in
  let ctx = Rq.context params in
  let n = params.Params.n and moduli = params.Params.coeff_modulus in
  let k = Array.length moduli in
  let layout = Riscv.Sampler_prog.default_layout in
  let program = Riscv.Sampler_prog.build ~n:(n + 1) ~k () in
  let rejected = ref 0 in
  for seed = 1 to 12 do
    let seed = Int64.of_int seed in
    let poly, log = Sampler.set_poly_coeffs_normal_v32 (Mathkit.Prng.create ~seed ()) ctx in
    let draws, noises =
      Riscv.Sampler_prog.draws_of_gaussian (Mathkit.Prng.create ~seed ()) Mathkit.Gaussian.seal_default ~count:n
    in
    Alcotest.(check (array int)) "same noises" log.Sampler.noises noises;
    Alcotest.(check (array int)) "same rejections" log.Sampler.rejections (Array.map snd draws);
    rejected := !rejected + Array.fold_left ( + ) 0 log.Sampler.rejections;
    let mem = Riscv.Memory.create layout.Riscv.Sampler_prog.ram_size in
    Riscv.Memory.load_program mem 0 program.Riscv.Asm.words;
    Riscv.Sampler_prog.stage_moduli mem layout moduli;
    Riscv.Sampler_prog.install_noise_port mem ~draws:(Array.append draws [| (0, 0) |]);
    ignore (Riscv.Cpu.run (Riscv.Cpu.create mem));
    let planes = Array.map (fun plane -> Array.sub plane 0 n) (Riscv.Sampler_prog.read_poly mem layout ~n:(n + 1) ~k) in
    Alcotest.(check bool) "firmware planes = BFV polynomial" true (Rq.equal poly (Rq.of_planes ctx planes))
  done;
  Alcotest.(check bool) "the queue replays some rejections" true (!rejected > 0)

(* --- Encrypt / decrypt -------------------------------------------------------- *)

let test_encrypt_decrypt_roundtrip () =
  let ctx = toy_ctx () in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  for _ = 1 to 20 do
    let m = random_plaintext g (Rq.params ctx) in
    let c, _ = Encryptor.encrypt g ctx pk m in
    Alcotest.(check bool) "decrypt(encrypt(m)) = m" true (Keys.plaintext_equal m (Decryptor.decrypt ctx sk c))
  done

let test_encrypt_decrypt_seal_1024 () =
  let ctx = Rq.context Params.seal_128_1024 in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  let m = random_plaintext g (Rq.params ctx) in
  let c, _ = Encryptor.encrypt g ctx pk m in
  Alcotest.(check bool) "roundtrip at n=1024" true (Keys.plaintext_equal m (Decryptor.decrypt ctx sk c))

let test_encrypt_decrypt_multi_prime () =
  let params = Params.create ~n:32 ~coeff_modulus:[ 12289; 786433 ] ~plain_modulus:64 in
  let ctx = Rq.context params in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  for _ = 1 to 10 do
    let m = random_plaintext g params in
    let c, _ = Encryptor.encrypt g ctx pk m in
    Alcotest.(check bool) "multi-prime roundtrip" true (Keys.plaintext_equal m (Decryptor.decrypt ctx sk c))
  done

let test_noise_budget_positive_fresh () =
  let ctx = Rq.context Params.seal_128_1024 in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  let m = random_plaintext g (Rq.params ctx) in
  let c, _ = Encryptor.encrypt g ctx pk m in
  let budget = Decryptor.noise_budget_bits ctx sk c in
  Alcotest.(check bool) "fresh budget > 0" true (budget > 0.0)

let test_deterministic_encrypt_with () =
  let ctx = toy_ctx () in
  let g = rng () in
  let _, pk = fresh_keys g ctx in
  let m = random_plaintext g (Rq.params ctx) in
  let c1, r = Encryptor.encrypt g ctx pk m in
  let c2 = Encryptor.encrypt_with ctx pk m r in
  Alcotest.(check bool) "same randomness, same ciphertext" true
    (Array.for_all2 Rq.equal c1.Keys.parts c2.Keys.parts)

(* --- Evaluator ------------------------------------------------------------------ *)

let test_homomorphic_add () =
  let ctx = toy_ctx () in
  let params = Rq.params ctx in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  for _ = 1 to 10 do
    let ma = random_plaintext g params and mb = random_plaintext g params in
    let ca, _ = Encryptor.encrypt g ctx pk ma and cb, _ = Encryptor.encrypt g ctx pk mb in
    let sum = Decryptor.decrypt ctx sk (Evaluator.add ctx ca cb) in
    let expected =
      Keys.plaintext_of_coeffs params
        (Array.init params.Params.n (fun i -> (ma.Keys.coeffs.(i) + mb.Keys.coeffs.(i)) mod params.Params.plain_modulus))
    in
    Alcotest.(check bool) "enc(a)+enc(b) = a+b" true (Keys.plaintext_equal expected sum)
  done

(* parameters with enough noise budget for one multiplication *)
let mul_ctx () =
  let q1 = Mathkit.Ntt.find_prime ~n:16 ~bits:26 in
  let q2 = Mathkit.Ntt.find_prime ~n:16 ~bits:27 in
  Rq.context (Params.create ~n:16 ~coeff_modulus:[ q1; q2 ] ~plain_modulus:64)

let poly_mul_mod_t params a b =
  let t = params.Params.plain_modulus in
  let md = Mathkit.Modular.modulus t in
  Mathkit.Poly.mul_schoolbook md (Array.map (Mathkit.Modular.reduce md) a) (Array.map (Mathkit.Modular.reduce md) b)

let test_homomorphic_mul_plain () =
  let ctx = toy_ctx () in
  let params = Rq.params ctx in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  let ma = random_plaintext g params in
  let mb = random_plaintext g params in
  let ca, _ = Encryptor.encrypt g ctx pk ma in
  let prod = Decryptor.decrypt ctx sk (Evaluator.mul_plain ctx ca mb) in
  let expected = Keys.plaintext_of_coeffs params (poly_mul_mod_t params ma.Keys.coeffs mb.Keys.coeffs) in
  Alcotest.(check bool) "mul_plain" true (Keys.plaintext_equal expected prod)

let test_homomorphic_multiply () =
  let ctx = mul_ctx () in
  let params = Rq.params ctx in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  for _ = 1 to 5 do
    let ma = random_plaintext g params and mb = random_plaintext g params in
    let ca, _ = Encryptor.encrypt g ctx pk ma and cb, _ = Encryptor.encrypt g ctx pk mb in
    let c = Evaluator.multiply ctx ca cb in
    Alcotest.(check int) "3 parts" 3 (Keys.ciphertext_size c);
    let prod = Decryptor.decrypt ctx sk c in
    let expected = Keys.plaintext_of_coeffs params (poly_mul_mod_t params ma.Keys.coeffs mb.Keys.coeffs) in
    Alcotest.(check bool) "enc(a)*enc(b) = a*b" true (Keys.plaintext_equal expected prod)
  done

let test_multiply_then_add () =
  let ctx = mul_ctx () in
  let params = Rq.params ctx in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  let ma = random_plaintext g params and mb = random_plaintext g params and mc = random_plaintext g params in
  let ca, _ = Encryptor.encrypt g ctx pk ma
  and cb, _ = Encryptor.encrypt g ctx pk mb
  and cc, _ = Encryptor.encrypt g ctx pk mc in
  let result = Decryptor.decrypt ctx sk (Evaluator.add ctx (Evaluator.multiply ctx ca cb) cc) in
  let t = params.Params.plain_modulus in
  let ab = poly_mul_mod_t params ma.Keys.coeffs mb.Keys.coeffs in
  let expected =
    Keys.plaintext_of_coeffs params (Array.init params.Params.n (fun i -> (ab.(i) + mc.Keys.coeffs.(i)) mod t))
  in
  Alcotest.(check bool) "a*b + c" true (Keys.plaintext_equal expected result)

(* --- Encoder -------------------------------------------------------------------- *)

let test_integer_encoder_roundtrip () =
  let params = Params.toy () in
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (Encoder.decode_int params (Encoder.encode_int params v)))
    [ 0; 1; 2; 7; 100; 255; -1; -100; 1000; -1000 ]

let test_integer_encoder_homomorphic_add () =
  let ctx = toy_ctx () in
  let params = Rq.params ctx in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  let ca, _ = Encryptor.encrypt g ctx pk (Encoder.encode_int params 37) in
  let cb, _ = Encryptor.encrypt g ctx pk (Encoder.encode_int params 19) in
  let sum = Encoder.decode_int params (Decryptor.decrypt ctx sk (Evaluator.add ctx ca cb)) in
  Alcotest.(check int) "37 + 19" 56 sum

let test_batch_encoder () =
  (* t = 786433 = 1 mod 2*32: batching available *)
  let params = Params.create ~n:32 ~coeff_modulus:[ 70254593 ] ~plain_modulus:786433 in
  let ctx = Rq.context params in
  match Encoder.batch ctx with
  | None -> Alcotest.fail "batching should be available"
  | Some b ->
      Alcotest.(check int) "slots" 32 (Encoder.batch_slots b);
      let g = rng () in
      let values = Array.init 32 (fun _ -> Mathkit.Prng.int g 786433) in
      let decoded = Encoder.batch_decode b (Encoder.batch_encode b values) in
      Alcotest.(check (array int)) "roundtrip" values decoded

let test_batch_encoder_slotwise_add () =
  (* t ~ 2^19.6 needs a much larger q for a usable Delta *)
  let q1 = Mathkit.Ntt.find_prime ~n:32 ~bits:26 in
  let q2 = Mathkit.Ntt.find_prime ~n:32 ~bits:27 in
  let params = Params.create ~n:32 ~coeff_modulus:[ q1; q2 ] ~plain_modulus:786433 in
  let ctx = Rq.context params in
  match Encoder.batch ctx with
  | None -> Alcotest.fail "batching should be available"
  | Some b ->
      let g = rng () in
      let sk, pk = fresh_keys g ctx in
      let va = Array.init 32 (fun _ -> Mathkit.Prng.int g 1000) in
      let vb = Array.init 32 (fun _ -> Mathkit.Prng.int g 1000) in
      let ca, _ = Encryptor.encrypt g ctx pk (Encoder.batch_encode b va) in
      let cb, _ = Encryptor.encrypt g ctx pk (Encoder.batch_encode b vb) in
      let sum = Encoder.batch_decode b (Decryptor.decrypt ctx sk (Evaluator.add ctx ca cb)) in
      Array.iteri (fun i s -> Alcotest.(check int) "slot" (va.(i) + vb.(i)) s) sum

let test_batch_unavailable () =
  let ctx = toy_ctx () in
  (* t = 64 is not prime, no batching *)
  Alcotest.(check bool) "no batching" true (Encoder.batch ctx = None)

(* --- Recover (the attack algebra) --------------------------------------------------- *)

let test_recover_u () =
  let ctx = toy_ctx () in
  let g = rng () in
  let _, pk = fresh_keys g ctx in
  let m = random_plaintext g (Rq.params ctx) in
  let c, r = Encryptor.encrypt g ctx pk m in
  match Recover.recover_u ctx pk c ~e2:r.Encryptor.e2 with
  | None -> Alcotest.fail "p1 not invertible"
  | Some u -> Alcotest.(check bool) "u recovered" true (Rq.equal u r.Encryptor.u)

let test_recover_message_eq3 () =
  let ctx = toy_ctx () in
  let g = rng () in
  let _, pk = fresh_keys g ctx in
  for _ = 1 to 10 do
    let m = random_plaintext g (Rq.params ctx) in
    let c, r = Encryptor.encrypt g ctx pk m in
    match Recover.recover_message ctx pk c ~e1:r.Encryptor.e1 ~e2:r.Encryptor.e2 with
    | None -> Alcotest.fail "recovery failed"
    | Some m' -> Alcotest.(check bool) "m recovered without sk" true (Keys.plaintext_equal m m')
  done

let test_recover_message_seal_1024 () =
  let ctx = Rq.context Params.seal_128_1024 in
  let g = rng () in
  let _, pk = fresh_keys g ctx in
  let m = random_plaintext g (Rq.params ctx) in
  let c, r = Encryptor.encrypt g ctx pk m in
  match
    Recover.recover_with_noises ctx pk c ~e1_noises:r.Encryptor.e1_log.Sampler.noises
      ~e2_noises:r.Encryptor.e2_log.Sampler.noises
  with
  | None -> Alcotest.fail "recovery failed"
  | Some m' -> Alcotest.(check bool) "full-size recovery from noises" true (Keys.plaintext_equal m m')

let test_recover_fails_with_wrong_noise () =
  let ctx = toy_ctx () in
  let g = rng () in
  let _, pk = fresh_keys g ctx in
  let m = random_plaintext g (Rq.params ctx) in
  let c, r = Encryptor.encrypt g ctx pk m in
  let wrong = Array.copy r.Encryptor.e2_log.Sampler.noises in
  wrong.(0) <- wrong.(0) + 1;
  (match Recover.recover_with_noises ctx pk c ~e1_noises:r.Encryptor.e1_log.Sampler.noises ~e2_noises:wrong with
  | None -> ()
  | Some m' ->
      (* a wrong e2 cannot reproduce m: the division residual check
         almost always rejects; if it slips through, the message must
         differ *)
      Alcotest.(check bool) "wrong noise, wrong message" false (Keys.plaintext_equal m m'))

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("params seal-128", test_params_seal);
      ("params delta", test_params_delta);
      ("params validation", test_params_rejects_bad);
      ("rq centered roundtrip", test_rq_centered_roundtrip);
      ("rq add/neg", test_rq_add_neg);
      ("rq mul vs schoolbook", test_rq_mul_matches_schoolbook);
      ("rq invert", test_rq_invert);
      ("rq multi-plane CRT", test_rq_multi_plane_consistency);
      ("sampler v3.2 assignment ladder", test_sampler_v32_assignment);
      ("sampler log matches poly", test_sampler_log_matches_poly);
      ("sampler v3.2 = the device's draw queue and firmware", test_sampler_matches_device_queue);
      ("encrypt/decrypt roundtrip", test_encrypt_decrypt_roundtrip);
      ("encrypt/decrypt n=1024 (paper params)", test_encrypt_decrypt_seal_1024);
      ("encrypt/decrypt multi-prime", test_encrypt_decrypt_multi_prime);
      ("noise budget positive", test_noise_budget_positive_fresh);
      ("deterministic encrypt_with", test_deterministic_encrypt_with);
      ("homomorphic add", test_homomorphic_add);
      ("homomorphic mul_plain", test_homomorphic_mul_plain);
      ("homomorphic multiply", test_homomorphic_multiply);
      ("multiply then add", test_multiply_then_add);
      ("integer encoder roundtrip", test_integer_encoder_roundtrip);
      ("integer encoder homomorphic", test_integer_encoder_homomorphic_add);
      ("batch encoder roundtrip", test_batch_encoder);
      ("batch encoder slotwise add", test_batch_encoder_slotwise_add);
      ("batch unavailable for composite t", test_batch_unavailable);
      ("recover u (eq. 2)", test_recover_u);
      ("recover message (eq. 3)", test_recover_message_eq3);
      ("recover message n=1024", test_recover_message_seal_1024);
      ("recover fails with wrong noise", test_recover_fails_with_wrong_noise);
    ]

(* --- noise budget through operation chains ------------------------------------ *)

let test_noise_budget_decreases_along_chain () =
  let ctx = mul_ctx () in
  let params = Rq.params ctx in
  let g = rng () in
  let sk, pk = fresh_keys g ctx in
  let m = random_plaintext g params in
  let c, _ = Encryptor.encrypt g ctx pk m in
  let fresh = Decryptor.noise_budget_bits ctx sk c in
  let after_add = Decryptor.noise_budget_bits ctx sk (Evaluator.add ctx c c) in
  let product = Evaluator.multiply ctx c c in
  let after_mul = Decryptor.noise_budget_bits ctx sk product in
  Alcotest.(check bool) "fresh positive" true (fresh > 0.0);
  Alcotest.(check bool) "add costs little" true (after_add <= fresh && after_add > fresh -. 3.0);
  Alcotest.(check bool) "multiply costs a lot" true (after_mul < after_add -. 3.0);
  Alcotest.(check bool) "still decryptable" true (after_mul > 0.0)

(* --- property tests ---------------------------------------------------------------- *)

let bfv_qcheck =
  let open QCheck in
  let toy = Params.toy () in
  [
    Test.make ~name:"bfv: decrypt . encrypt = id" ~count:25 (int_bound 100000) (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        let ctx = Rq.context toy in
        let sk = Keygen.secret_key g ctx in
        let pk = Keygen.public_key g ctx sk in
        let m = random_plaintext g toy in
        let c, _ = Encryptor.encrypt g ctx pk m in
        Keys.plaintext_equal m (Decryptor.decrypt ctx sk c));
    Test.make ~name:"bfv: addition is homomorphic" ~count:20 (int_bound 100000) (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        let ctx = Rq.context toy in
        let sk = Keygen.secret_key g ctx in
        let pk = Keygen.public_key g ctx sk in
        let ma = random_plaintext g toy and mb = random_plaintext g toy in
        let ca, _ = Encryptor.encrypt g ctx pk ma and cb, _ = Encryptor.encrypt g ctx pk mb in
        let sum = Decryptor.decrypt ctx sk (Evaluator.add ctx ca cb) in
        let t = toy.Params.plain_modulus in
        Array.for_all2 (fun s (x, y) -> s = (x + y) mod t) sum.Keys.coeffs
          (Array.map2 (fun x y -> (x, y)) ma.Keys.coeffs mb.Keys.coeffs));
    Test.make ~name:"bfv: eq.(3) recovery for random messages" ~count:20 (int_bound 100000) (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        let ctx = Rq.context toy in
        let sk = Keygen.secret_key g ctx in
        ignore sk;
        let pk = Keygen.public_key g ctx (Keygen.secret_key g ctx) in
        let m = random_plaintext g toy in
        let c, r = Encryptor.encrypt g ctx pk m in
        match Recover.recover_message ctx pk c ~e1:r.Encryptor.e1 ~e2:r.Encryptor.e2 with
        | Some m' -> Keys.plaintext_equal m m'
        | None -> false);
  ]

let suite = suite
  @ [ Alcotest.test_case "noise budget along chains" `Quick test_noise_budget_decreases_along_chain ]
  @ List.map QCheck_alcotest.to_alcotest bfv_qcheck
