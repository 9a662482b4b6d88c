(* Unit and property tests for the numeric substrate. *)

open Mathkit

let rng () = Prng.create ~seed:42L ()

(* --- Prng ------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:7L () and b = Prng.create ~seed:7L () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L () and b = Prng.create ~seed:2L () in
  Alcotest.(check bool) "different streams" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_int_range () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let v = Prng.int_in g (-5) 9 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 9)
  done

let test_prng_float_range () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let f = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_uniformity () =
  let g = rng () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "within 5%" true (abs (c - expected) < expected / 20))
    buckets

let test_prng_ternary () =
  let g = rng () in
  let seen = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let t = Prng.ternary g in
    Alcotest.(check bool) "in {-1,0,1}" true (t >= -1 && t <= 1);
    seen.(t + 1) <- seen.(t + 1) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "each value appears often" true (c > 8_000)) seen

let test_prng_split_independent () =
  let g = rng () in
  let h = Prng.split g in
  Alcotest.(check bool) "split stream differs" false (Prng.bits64 g = Prng.bits64 h)

let test_prng_shuffle_permutation () =
  let g = rng () in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* --- Modular ----------------------------------------------------------- *)

let q_small = Modular.modulus 97
let q_seal = Modular.modulus 132120577

let test_modular_reduce_negative () =
  Alcotest.(check int) "reduce -1" 96 (Modular.reduce q_small (-1));
  Alcotest.(check int) "reduce -97" 0 (Modular.reduce q_small (-97));
  Alcotest.(check int) "reduce 97" 0 (Modular.reduce q_small 97)

let test_modular_add_sub_roundtrip () =
  let g = rng () in
  for _ = 1 to 1_000 do
    let a = Prng.int g 97 and b = Prng.int g 97 in
    Alcotest.(check int) "sub(add(a,b),b)=a" a (Modular.sub q_small (Modular.add q_small a b) b)
  done

let test_modular_mul_matches_naive () =
  let g = rng () in
  for _ = 1 to 1_000 do
    let a = Prng.int g 132120577 and b = Prng.int g 132120577 in
    (* both < 2^27 so the naive product is exact in 63-bit ints *)
    Alcotest.(check int) "mul" (a * b mod 132120577) (Modular.mul q_seal a b)
  done

let test_modular_mul_large_modulus () =
  (* A modulus above 2^31 exercises the 128-bit slow path. *)
  let q = (1 lsl 61) - 1 in
  let m = Modular.modulus q in
  let g = rng () in
  for _ = 1 to 200 do
    let a = Prng.int g q and b = Prng.int g 1000 in
    (* check against repeated addition for a small second operand *)
    let expected = ref 0 in
    for _ = 1 to b do
      expected := Modular.add m !expected a
    done;
    Alcotest.(check int) "mul vs repeated add" !expected (Modular.mul m a b)
  done

let test_mul128_known () =
  let hi, lo = Modular.mul128 0 12345 in
  Alcotest.(check int) "0*x hi" 0 hi;
  Alcotest.(check int) "0*x lo" 0 lo;
  let hi, lo = Modular.mul128 (1 lsl 31) (1 lsl 31) in
  Alcotest.(check int) "2^31*2^31 = 2^62 -> hi=1 lo=0" 1 hi;
  Alcotest.(check int) "lo" 0 lo

let test_modular_pow () =
  Alcotest.(check int) "2^10 mod 97" (1024 mod 97) (Modular.pow q_small 2 10);
  Alcotest.(check int) "fermat" 1 (Modular.pow q_small 5 96)

let test_modular_inv () =
  let g = rng () in
  for _ = 1 to 500 do
    let a = 1 + Prng.int g 96 in
    let ai = Modular.inv q_small a in
    Alcotest.(check int) "a * a^-1 = 1" 1 (Modular.mul q_small a ai)
  done

let test_modular_inv_zero_raises () =
  Alcotest.check_raises "inv 0" (Invalid_argument "Modular.inv: zero") (fun () ->
      ignore (Modular.inv q_small 0))

let test_modular_centered_roundtrip () =
  for x = 0 to 96 do
    let c = Modular.to_centered q_small x in
    Alcotest.(check bool) "range" true (c > -49 && c <= 48);
    Alcotest.(check int) "roundtrip" x (Modular.of_centered q_small c)
  done

let test_is_prime_known () =
  List.iter (fun p -> Alcotest.(check bool) (string_of_int p) true (Modular.is_prime p)) [ 2; 3; 97; 132120577; 998244353; (1 lsl 61) - 1 ];
  List.iter (fun c -> Alcotest.(check bool) (string_of_int c) false (Modular.is_prime c)) [ 0; 1; 4; 100; 132120575; 1 lsl 40 ]

let test_first_prime_congruent () =
  let p = Modular.first_prime_congruent ~start:(1 lsl 20) ~modulo:2048 ~residue:1 in
  Alcotest.(check bool) "prime" true (Modular.is_prime p);
  Alcotest.(check int) "congruent" 1 (p mod 2048)

let test_primitive_root () =
  let md = Modular.modulus 998244353 in
  let g = Modular.primitive_root md in
  Alcotest.(check int) "g^(q-1) = 1" 1 (Modular.pow md g (998244353 - 1));
  Alcotest.(check bool) "g^((q-1)/2) <> 1" true (Modular.pow md g ((998244353 - 1) / 2) <> 1)

let test_nth_root_of_unity () =
  let md = Modular.modulus 998244353 in
  let w = Modular.nth_root_of_unity md 2048 in
  Alcotest.(check int) "w^n = 1" 1 (Modular.pow md w 2048);
  Alcotest.(check bool) "w^(n/2) = -1" true (Modular.pow md w 1024 = 998244353 - 1)

(* --- Ntt ---------------------------------------------------------------- *)

let test_ntt_roundtrip () =
  let q = Ntt.find_prime ~n:256 ~bits:28 in
  let md = Modular.modulus q in
  let p = Ntt.plan md 256 in
  let g = rng () in
  for _ = 1 to 20 do
    let a = Poly.uniform g md 256 in
    let b = Array.copy a in
    Ntt.forward p b;
    Ntt.inverse p b;
    Alcotest.(check bool) "forward;inverse = id" true (Poly.equal a b)
  done

let test_ntt_multiply_matches_schoolbook () =
  let q = Ntt.find_prime ~n:64 ~bits:28 in
  let md = Modular.modulus q in
  let p = Ntt.plan md 64 in
  let g = rng () in
  for _ = 1 to 20 do
    let a = Poly.uniform g md 64 and b = Poly.uniform g md 64 in
    Alcotest.(check bool) "ntt = schoolbook" true (Poly.equal (Ntt.multiply p a b) (Poly.mul_schoolbook md a b))
  done

let test_ntt_rejects_bad_modulus () =
  Alcotest.check_raises "not friendly" (Invalid_argument "Ntt.plan: modulus not NTT-friendly for this degree") (fun () ->
      ignore (Ntt.plan (Modular.modulus 97) 64))

let test_ntt_negacyclic_wraparound () =
  (* (x^(n-1)) * x = x^n = -1 in the negacyclic ring. *)
  let n = 32 in
  let q = Ntt.find_prime ~n ~bits:20 in
  let md = Modular.modulus q in
  let p = Ntt.plan md n in
  let a = Poly.zero n and b = Poly.zero n in
  a.(n - 1) <- 1;
  b.(1) <- 1;
  let c = Ntt.multiply p a b in
  let expected = Poly.zero n in
  expected.(0) <- q - 1;
  Alcotest.(check bool) "x^n = -1" true (Poly.equal c expected)

(* --- Poly ---------------------------------------------------------------- *)

let test_poly_schoolbook_identity () =
  let md = q_small in
  let one = Poly.zero 8 in
  one.(0) <- 1;
  let g = rng () in
  let a = Poly.uniform g md 8 in
  Alcotest.(check bool) "a * 1 = a" true (Poly.equal a (Poly.mul_schoolbook md a one))

let test_poly_mul_commutative () =
  let md = q_small in
  let g = rng () in
  for _ = 1 to 20 do
    let a = Poly.uniform g md 16 and b = Poly.uniform g md 16 in
    Alcotest.(check bool) "ab = ba" true (Poly.equal (Poly.mul_schoolbook md a b) (Poly.mul_schoolbook md b a))
  done

(* --- Bignum -------------------------------------------------------------- *)

let bn = Bignum.of_string

let test_bignum_int_roundtrip () =
  let g = rng () in
  for _ = 1 to 1_000 do
    let x = Prng.int g max_int in
    Alcotest.(check int) "roundtrip" x (Bignum.to_int (Bignum.of_int x))
  done

let test_bignum_string_roundtrip () =
  let s = "123456789012345678901234567890123456789" in
  Alcotest.(check string) "roundtrip" s (Bignum.to_string (bn s))

let test_bignum_add_sub () =
  let a = bn "999999999999999999999999999999" and b = bn "123456789123456789123456789" in
  Alcotest.(check bool) "sub(add(a,b),b) = a" true (Bignum.equal a (Bignum.sub (Bignum.add a b) b))

let test_bignum_mul_known () =
  let a = bn "123456789123456789" and b = bn "987654321987654321" in
  Alcotest.(check string) "product" "121932631356500531347203169112635269" (Bignum.to_string (Bignum.mul a b))

let test_bignum_divmod () =
  let a = bn "121932631356500531347203169112635269" and b = bn "987654321987654321" in
  let q, r = Bignum.divmod a b in
  Alcotest.(check string) "quotient" "123456789123456789" (Bignum.to_string q);
  Alcotest.(check bool) "remainder zero" true (Bignum.is_zero r);
  let q2, r2 = Bignum.divmod (Bignum.add a Bignum.one) b in
  Alcotest.(check string) "quotient same" "123456789123456789" (Bignum.to_string q2);
  Alcotest.(check string) "remainder one" "1" (Bignum.to_string r2)

let test_bignum_mod_int () =
  let a = bn "123456789012345678901234567890" in
  Alcotest.(check int) "mod small" (Bignum.to_int (Bignum.rem a (Bignum.of_int 97))) (Bignum.mod_int a 97)

let test_bignum_shifts () =
  let a = bn "12345678901234567890" in
  Alcotest.(check bool) "shift roundtrip" true (Bignum.equal a (Bignum.shift_right (Bignum.shift_left a 100) 100));
  Alcotest.(check bool) "shl = *2^k" true (Bignum.equal (Bignum.shift_left a 13) (Bignum.mul a (Bignum.of_int 8192)))

let test_bignum_round_div () =
  Alcotest.(check int) "7/2 rounds to 4" 4 (Bignum.to_int (Bignum.round_div (Bignum.of_int 7) (Bignum.of_int 2)));
  Alcotest.(check int) "6/4 rounds to 2 (tie up)" 2 (Bignum.to_int (Bignum.round_div (Bignum.of_int 6) (Bignum.of_int 4)));
  Alcotest.(check int) "5/4 rounds to 1" 1 (Bignum.to_int (Bignum.round_div (Bignum.of_int 5) (Bignum.of_int 4)))

let test_bignum_bits_log2 () =
  Alcotest.(check int) "bits 0" 0 (Bignum.bits Bignum.zero);
  Alcotest.(check int) "bits 1" 1 (Bignum.bits Bignum.one);
  Alcotest.(check int) "bits 2^62" 63 (Bignum.bits (Bignum.shift_left Bignum.one 62));
  let l = Bignum.log2 (Bignum.shift_left Bignum.one 100) in
  Alcotest.(check (float 1e-9)) "log2 2^100" 100.0 l

let test_bignum_sub_negative_raises () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub Bignum.one (Bignum.of_int 2)))

(* --- Rns ------------------------------------------------------------------ *)

let test_rns_compose_decompose () =
  let basis = Rns.create [ 1073741789; 1073741783; 536870909 ] in
  let g = rng () in
  for _ = 1 to 100 do
    let residues = Array.map (fun p -> Prng.int g p) (Rns.primes basis) in
    let v = Rns.compose basis residues in
    Alcotest.(check (array int)) "roundtrip" residues (Rns.decompose basis v)
  done

let test_rns_small_value_centered () =
  let basis = Rns.create [ 97; 101 ] in
  let residues = [| 97 - 5; 101 - 5 |] (* -5 in each plane *) in
  let magnitude, negative = Rns.compose_centered basis residues in
  Alcotest.(check bool) "negative" true negative;
  Alcotest.(check int) "magnitude" 5 (Bignum.to_int magnitude)

let test_rns_rejects_non_coprime () =
  Alcotest.check_raises "coprime" (Invalid_argument "Rns.create: basis not coprime") (fun () ->
      ignore (Rns.create [ 6; 9 ]))

(* --- Gaussian --------------------------------------------------------------- *)

let test_gaussian_clipping () =
  let g = rng () in
  let p = Gaussian.polar () in
  let c = Gaussian.seal_default in
  let bound = int_of_float (Float.round c.Gaussian.max_deviation) in
  for _ = 1 to 50_000 do
    let z, _ = Gaussian.clipped_draw p g c in
    Alcotest.(check bool) "clipped" true (abs z <= bound)
  done

let test_gaussian_moments () =
  let g = rng () in
  let p = Gaussian.polar () in
  let c = Gaussian.seal_default in
  let acc = Stats.running () in
  for _ = 1 to 200_000 do
    Stats.push acc (float_of_int (fst (Gaussian.clipped_draw p g c)))
  done;
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean acc) < 0.05);
  (* rounded clipped normal with sigma=3.19: variance ~ sigma^2 + 1/12 *)
  let v = Stats.variance acc in
  Alcotest.(check bool) "variance near sigma^2" true (Float.abs (v -. 10.26) < 0.4)

let test_gaussian_polar_pairs () =
  let g = rng () in
  let p = Gaussian.polar () in
  Alcotest.(check bool) "no pending initially" false (Gaussian.polar_pending p);
  ignore (Gaussian.normal p g ~mu:0.0 ~sigma:1.0);
  Alcotest.(check bool) "second deviate cached" true (Gaussian.polar_pending p);
  let _, rejections = Gaussian.clipped_draw p g { Gaussian.sigma = 1.0; max_deviation = infinity } in
  Alcotest.(check int) "cached draw costs no rejections" 0 rejections

let test_gaussian_discrete_probability_sums_to_one () =
  let total = ref 0.0 in
  for z = -60 to 60 do
    total := !total +. Gaussian.discrete_probability ~sigma:3.19 z
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 !total

(* [cdt_table] at the tail cut the CDT firmware's thresholds use, read
   as a distribution without sampling it (test_riscv samples the
   firmware's draw): magnitude z has mass cdt(z) - cdt(z - 1), and the
   signed draw is symmetric, so its variance is the mean of z^2. *)
let test_gaussian_cdt_distribution () =
  let sigma = 3.19 in
  let cdt =
    Gaussian.cdt_table ~sigma ~tail_cut:(float_of_int Riscv.Sampler_prog.cdt_entries /. sigma)
  in
  let bound = Array.length cdt - 1 in
  Alcotest.(check int) "one entry per magnitude" Riscv.Sampler_prog.cdt_entries bound;
  for z = 1 to bound do
    Alcotest.(check bool) (Printf.sprintf "nondecreasing at %d" z) true (cdt.(z) >= cdt.(z - 1))
  done;
  Alcotest.(check (float 0.0)) "last entry" 1.0 cdt.(bound);
  let variance = ref 0.0 in
  for z = 1 to bound do
    variance := !variance +. ((cdt.(z) -. cdt.(z - 1)) *. float_of_int (z * z))
  done;
  Alcotest.(check bool) "stddev near sigma" true (Float.abs (sqrt !variance -. sigma) < 0.15)

(* --- the polar noise kernel ------------------------------------------------ *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* What [add_normal] replaces: a fresh [polar] and one [normal ~mu:0.0]
   per element. *)
let normal_loop rng ~sigma a =
  let p = Gaussian.polar () in
  Array.iteri (fun i x -> a.(i) <- x +. Gaussian.normal p rng ~mu:0.0 ~sigma) a

(* Same bits, and the same draws consumed; the kernel noises a prefix
   of its array, so a tail past [len] must come back untouched. *)
let add_normal_matches ~seed ~sigma base =
  let g = Prng.create ~seed () in
  let g' = Prng.copy g in
  let tail = [| 7.0; -0.0 |] in
  let got = Array.append base tail and want = Array.copy base in
  Gaussian.add_normal g ~sigma got ~len:(Array.length base);
  normal_loop g' ~sigma want;
  same_bits got (Array.append want tail) && Prng.bits64 g = Prng.bits64 g'

(* Levels with signed zeros among them, so a kernel that dropped
   [normal]'s [+. mu] would show at sigma = 0. *)
let noise_base ~seed n =
  let g = Prng.create ~seed () in
  Array.init n (fun _ -> match Prng.int g 4 with 0 -> -0.0 | 1 -> 0.0 | _ -> 10.0 +. Prng.float g)

let test_add_normal_lengths () =
  List.iter
    (fun n ->
      List.iter
        (fun sigma ->
          Alcotest.(check bool)
            (Printf.sprintf "n = %d, sigma = %g" n sigma)
            true
            (add_normal_matches ~seed:(Int64.of_int (n + 1)) ~sigma (noise_base ~seed:5L n)))
        [ 0.17; 1.0; 0.0; -0.0 ])
    [ 0; 1; 2; 3; 4097 ]

let add_normal_prop =
  QCheck.Test.make ~name:"Gaussian.add_normal equals a fresh polar's normal loop bit for bit" ~count:200
    QCheck.(
      triple (int_range 0 600)
        (make ~print:string_of_float Gen.(oneof [ float_range (-3.0) 3.0; oneofl [ 0.0; -0.0; 0.17; 1e-300 ] ]))
        int)
    (fun (n, sigma, seed) ->
      add_normal_matches ~seed:(Int64.of_int seed) ~sigma (noise_base ~seed:(Int64.of_int (seed lxor n)) n))

let test_prng_bits53 () =
  let g = rng () in
  let g' = Prng.copy g and g'' = Prng.copy g in
  for i = 1 to 10_000 do
    let b = Prng.bits53 g in
    if b < 0 || b >= 1 lsl 53 then Alcotest.failf "draw %d: bits53 = %d, outside [0, 2^53)" i b;
    (* [float] is [bits53] scaled, and both are what [float] computed
       from [bits64] before [bits53] existed *)
    let old = Int64.to_float (Int64.shift_right_logical (Prng.bits64 g'') 11) *. 0x1.0p-53 in
    let f = Prng.float g' in
    if Int64.bits_of_float f <> Int64.bits_of_float (float_of_int b *. 0x1p-53) then
      Alcotest.failf "draw %d: float differs from bits53 scaled" i;
    if Int64.bits_of_float f <> Int64.bits_of_float old then Alcotest.failf "draw %d: float moved" i
  done

(* The bulk kernel against [len] single draws: the same values, the
   same state after, and nothing written past [len]. *)
let test_prng_fill_bits53 () =
  let draw4 g = Array.init 4 (fun _ -> Prng.bits64 g) in
  List.iter
    (fun len ->
      let g = Prng.create ~seed:(Int64.of_int (len + 11)) () in
      let reference = Prng.copy g in
      let a = Array.make (len + 3) (-1) in
      Prng.fill_bits53 g a ~len;
      for i = 0 to len - 1 do
        let b = Prng.bits53 reference in
        if a.(i) <> b then Alcotest.failf "len %d, draw %d: %d, bits53 %d" len i a.(i) b
      done;
      Alcotest.(check (array int)) (Printf.sprintf "len %d: tail untouched" len) [| -1; -1; -1 |] (Array.sub a len 3);
      (* one draw reads only s1: four see every state word *)
      Alcotest.(check (array int64)) (Printf.sprintf "len %d: same next draws" len) (draw4 reference) (draw4 g))
    [ 0; 1; 2; 4097 ];
  Alcotest.check_raises "len past the array" (Invalid_argument "Prng.fill_bits53: len out of range") (fun () ->
      Prng.fill_bits53 (rng ()) (Array.make 2 0) ~len:3)

let test_gaussian_cdf_monotone () =
  let prev = ref neg_infinity in
  for i = -40 to 40 do
    let x = float_of_int i /. 4.0 in
    let c = Gaussian.cdf ~mu:0.0 ~sigma:3.19 x in
    Alcotest.(check bool) "monotone" true (c >= !prev);
    prev := c
  done

(* --- Matrix / Linalg ---------------------------------------------------------- *)

let mat = Matrix.of_arrays

let test_matrix_mul_identity () =
  let a = mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (float 0.0)) "I*A = A" 0.0 (Matrix.max_abs_diff a (Matrix.mul (Matrix.identity 2) a))

let test_matrix_mul_known () =
  let a = mat [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = mat [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  Alcotest.(check (float 1e-12)) "c00" 19.0 (Matrix.get c 0 0);
  Alcotest.(check (float 1e-12)) "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_transpose_involution () =
  let a = mat [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check (float 0.0)) "(A^T)^T = A" 0.0 (Matrix.max_abs_diff a (Matrix.transpose (Matrix.transpose a)))

let random_spd g n =
  let b = Matrix.init n n (fun _ _ -> Prng.float g -. 0.5) in
  Matrix.add (Matrix.mul b (Matrix.transpose b)) (Matrix.scale 0.5 (Matrix.identity n))

let test_inverse () =
  let g = rng () in
  let a = random_spd g 5 in
  let ai = Linalg.inverse a in
  Alcotest.(check bool) "A A^-1 = I" true (Matrix.max_abs_diff (Matrix.identity 5) (Matrix.mul a ai) < 1e-8)

(* log det A = 2 sum log L_ii for the Cholesky factor L L^T = A of an
   SPD matrix: an independent reference for the LU log-determinant. *)
let cholesky_logdet a =
  let n = Matrix.rows a in
  let l = Matrix.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (Matrix.get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (Matrix.get l i k *. Matrix.get l j k)
      done;
      Matrix.set l i j (if i = j then sqrt !s else !s /. Matrix.get l j j)
    done
  done;
  2.0 *. Array.fold_left ( +. ) 0.0 (Array.init n (fun i -> log (Matrix.get l i i)))

let test_logdet_consistency () =
  let g = rng () in
  let a = random_spd g 6 in
  Alcotest.(check (float 1e-8)) "lu vs cholesky logdet" (cholesky_logdet a) (Linalg.logdet a)

let test_logdet_known () =
  let a = mat [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  Alcotest.(check (float 1e-12)) "log 6" (log 6.0) (Linalg.logdet a)

let test_mahalanobis () =
  let inv_cov = Matrix.identity 3 in
  let x = [| 1.0; 2.0; 3.0 |] and mu = [| 0.0; 0.0; 0.0 |] in
  Alcotest.(check (float 1e-12)) "euclidean case" 14.0 (Scoring_oracle.mahalanobis_sq ~inv_cov x mu)

(* --- Stats ------------------------------------------------------------------------ *)

let test_running_matches_batch () =
  let g = rng () in
  let xs = Array.init 1_000 (fun _ -> Prng.float g) in
  let r = Stats.running () in
  Array.iter (Stats.push r) xs;
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean_a xs) (Stats.mean r);
  Alcotest.(check (float 1e-9)) "variance" (Stats.variance_a xs) (Stats.variance r)

let test_covariance_diagonal () =
  let g = rng () in
  let rows = Array.init 5_000 (fun _ -> [| Prng.float g; 2.0 *. Prng.float g |]) in
  let c = Stats.pooled_covariance [| rows |] in
  (* var(U[0,1]) = 1/12; independent components *)
  Alcotest.(check bool) "var0" true (Float.abs (Matrix.get c 0 0 -. (1.0 /. 12.0)) < 0.01);
  Alcotest.(check bool) "var1" true (Float.abs (Matrix.get c 1 1 -. (4.0 /. 12.0)) < 0.03);
  Alcotest.(check bool) "cov01 small" true (Float.abs (Matrix.get c 0 1) < 0.01)

let test_pooled_covariance_weights () =
  (* Two classes with identical covariance should pool to that covariance. *)
  let g = rng () in
  let mk off = Array.init 2_000 (fun _ -> [| off +. Prng.float g |]) in
  let pooled = Stats.pooled_covariance [| mk 0.0; mk 100.0 |] in
  Alcotest.(check bool) "pooled var" true (Float.abs (Matrix.get pooled 0 0 -. (1.0 /. 12.0)) < 0.01)

let test_argmax () =
  let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0 |] in
  Alcotest.(check int) "argmax" 5 (Stats.argmax xs)

let test_log_sum_exp () =
  let xs = [| 0.0; 0.0 |] in
  Alcotest.(check (float 1e-12)) "lse(0,0) = ln 2" (log 2.0) (Stats.log_sum_exp xs);
  let big = [| 1000.0; 1000.0 |] in
  Alcotest.(check (float 1e-9)) "no overflow" (1000.0 +. log 2.0) (Stats.log_sum_exp big)

let test_normalize_probs () =
  let p = Stats.normalize_probs [| 1.0; 3.0 |] in
  Alcotest.(check (float 1e-12)) "p0" 0.25 p.(0);
  Alcotest.(check (float 1e-12)) "p1" 0.75 p.(1)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-12)) "median" 3.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-12)) "min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-12)) "max" 5.0 (Stats.percentile xs 100.0)

let test_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "perfect" 1.0 (Stats.correlation xs xs);
  let neg = Array.map (fun x -> -.x) xs in
  Alcotest.(check (float 1e-12)) "anti" (-1.0) (Stats.correlation xs neg);
  Alcotest.(check (float 1e-12)) "constant" 0.0 (Stats.correlation xs [| 1.0; 1.0; 1.0; 1.0 |])

(* --- qcheck properties ----------------------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"modular: mul distributes over add" ~count:500
      (triple (int_bound 132120576) (int_bound 132120576) (int_bound 132120576))
      (fun (a, b, c) ->
        let m = q_seal in
        Modular.mul m a (Modular.add m b c) = Modular.add m (Modular.mul m a b) (Modular.mul m a c));
    Test.make ~name:"modular: pow homomorphism" ~count:200
      (triple (int_bound 96) (int_bound 50) (int_bound 50))
      (fun (b, e1, e2) ->
        Modular.mul q_small (Modular.pow q_small b e1) (Modular.pow q_small b e2) = Modular.pow q_small b (e1 + e2));
    Test.make ~name:"bignum: add commutative" ~count:300
      (pair (int_bound max_int) (int_bound max_int))
      (fun (a, b) ->
        let a = Bignum.of_int a and b = Bignum.of_int b in
        Bignum.equal (Bignum.add a b) (Bignum.add b a));
    Test.make ~name:"bignum: mul matches int mul on small values" ~count:300
      (pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
      (fun (a, b) -> Bignum.to_int (Bignum.mul (Bignum.of_int a) (Bignum.of_int b)) = a * b);
    Test.make ~name:"bignum: divmod invariant a = q*b + r, r < b" ~count:300
      (pair (int_bound max_int) (int_range 1 max_int))
      (fun (a, b) ->
        let ba = Bignum.of_int a and bb = Bignum.of_int b in
        let q, r = Bignum.divmod ba bb in
        Bignum.compare r bb < 0 && Bignum.equal ba (Bignum.add (Bignum.mul q bb) r));
    Test.make ~name:"poly: schoolbook mul associative (small)" ~count:50
      (int_bound 1000)
      (fun seed ->
        let g = Prng.create ~seed:(Int64.of_int seed) () in
        let md = q_small in
        let a = Poly.uniform g md 8 and b = Poly.uniform g md 8 and c = Poly.uniform g md 8 in
        Poly.equal
          (Poly.mul_schoolbook md a (Poly.mul_schoolbook md b c))
          (Poly.mul_schoolbook md (Poly.mul_schoolbook md a b) c));
    Test.make ~name:"ntt: roundtrip on random vectors" ~count:50
      (int_bound 1000)
      (fun seed ->
        let g = Prng.create ~seed:(Int64.of_int seed) () in
        let q = 998244353 in
        let md = Modular.modulus q in
        let p = Ntt.plan md 128 in
        let a = Poly.uniform g md 128 in
        let b = Array.copy a in
        Ntt.forward p b;
        Ntt.inverse p b;
        Poly.equal a b);
    Test.make ~name:"rns: compose . decompose = id on ints" ~count:300
      (int_bound 1_000_000)
      (fun x ->
        let basis = Rns.create [ 1073741789; 536870909 ] in
        let residues = Rns.decompose basis (Bignum.of_int x) in
        Bignum.to_int (Rns.compose basis residues) = x);
  ]

let unit_cases =
  [
    ("prng determinism", test_prng_determinism);
    ("prng seed sensitivity", test_prng_seed_sensitivity);
    ("prng int range", test_prng_int_range);
    ("prng int_in range", test_prng_int_in);
    ("prng float range", test_prng_float_range);
    ("prng uniformity", test_prng_uniformity);
    ("prng ternary", test_prng_ternary);
    ("prng split", test_prng_split_independent);
    ("prng shuffle permutation", test_prng_shuffle_permutation);
    ("prng bits53 and float", test_prng_bits53);
    ("prng fill_bits53 = bits53 calls", test_prng_fill_bits53);
    ("modular reduce negative", test_modular_reduce_negative);
    ("modular add/sub roundtrip", test_modular_add_sub_roundtrip);
    ("modular mul vs naive", test_modular_mul_matches_naive);
    ("modular mul large modulus", test_modular_mul_large_modulus);
    ("mul128 known values", test_mul128_known);
    ("modular pow", test_modular_pow);
    ("modular inv", test_modular_inv);
    ("modular inv zero raises", test_modular_inv_zero_raises);
    ("modular centered roundtrip", test_modular_centered_roundtrip);
    ("is_prime known values", test_is_prime_known);
    ("first_prime_congruent", test_first_prime_congruent);
    ("primitive root", test_primitive_root);
    ("nth root of unity", test_nth_root_of_unity);
    ("ntt roundtrip", test_ntt_roundtrip);
    ("ntt multiply vs schoolbook", test_ntt_multiply_matches_schoolbook);
    ("ntt rejects bad modulus", test_ntt_rejects_bad_modulus);
    ("ntt negacyclic wraparound", test_ntt_negacyclic_wraparound);
    ("poly schoolbook identity", test_poly_schoolbook_identity);
    ("poly mul commutative", test_poly_mul_commutative);
    ("bignum int roundtrip", test_bignum_int_roundtrip);
    ("bignum string roundtrip", test_bignum_string_roundtrip);
    ("bignum add/sub", test_bignum_add_sub);
    ("bignum mul known", test_bignum_mul_known);
    ("bignum divmod", test_bignum_divmod);
    ("bignum mod_int", test_bignum_mod_int);
    ("bignum shifts", test_bignum_shifts);
    ("bignum round_div", test_bignum_round_div);
    ("bignum bits/log2", test_bignum_bits_log2);
    ("bignum sub negative raises", test_bignum_sub_negative_raises);
    ("rns compose/decompose", test_rns_compose_decompose);
    ("rns centered small values", test_rns_small_value_centered);
    ("rns rejects non-coprime", test_rns_rejects_non_coprime);
    ("gaussian clipping", test_gaussian_clipping);
    ("gaussian moments", test_gaussian_moments);
    ("gaussian polar pairs", test_gaussian_polar_pairs);
    ("gaussian discrete prob sums to 1", test_gaussian_discrete_probability_sums_to_one);
    ("gaussian cdt distribution", test_gaussian_cdt_distribution);
    ("gaussian add_normal at fixed lengths", test_add_normal_lengths);
    ("gaussian cdf monotone", test_gaussian_cdf_monotone);
    ("matrix mul identity", test_matrix_mul_identity);
    ("matrix mul known", test_matrix_mul_known);
    ("matrix transpose involution", test_matrix_transpose_involution);
    ("matrix inverse", test_inverse);
    ("logdet consistency", test_logdet_consistency);
    ("logdet known", test_logdet_known);
    ("mahalanobis", test_mahalanobis);
    ("running stats match batch", test_running_matches_batch);
    ("covariance diagonal", test_covariance_diagonal);
    ("pooled covariance", test_pooled_covariance_weights);
    ("argmax", test_argmax);
    ("log_sum_exp", test_log_sum_exp);
    ("normalize_probs", test_normalize_probs);
    ("percentile", test_percentile);
    ("correlation", test_correlation);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_cases
  @ List.map QCheck_alcotest.to_alcotest (qcheck_cases @ [ add_normal_prop ])

(* --- eigendecomposition (added with the PCA extension) ------------------ *)

let test_jacobi_diagonal () =
  let a = Matrix.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let values, vectors = Linalg.jacobi_eigen a in
  Alcotest.(check (float 1e-10)) "largest first" 3.0 values.(0);
  Alcotest.(check (float 1e-10)) "second" 1.0 values.(1);
  Alcotest.(check (float 1e-10)) "eigvec" 1.0 (Float.abs (Matrix.get vectors 0 0))

let test_jacobi_reconstruction () =
  let g = Prng.create ~seed:77L () in
  for _ = 1 to 5 do
    let n = 6 in
    let b = Matrix.init n n (fun _ _ -> Prng.float g -. 0.5) in
    let a = Matrix.mul b (Matrix.transpose b) in
    let values, v = Linalg.jacobi_eigen a in
    (* A = V diag(values) V^T *)
    let d = Matrix.init n n (fun i j -> if i = j then values.(i) else 0.0) in
    let rebuilt = Matrix.mul (Matrix.mul v d) (Matrix.transpose v) in
    Alcotest.(check bool) "reconstructs" true (Matrix.max_abs_diff a rebuilt < 1e-8);
    (* eigenvalues of an SPD matrix are non-negative and sorted *)
    let prev = ref Float.infinity in
    Array.iter
      (fun ev ->
        Alcotest.(check bool) "sorted" true (ev <= !prev +. 1e-12);
        Alcotest.(check bool) "non-negative" true (ev >= -1e-10);
        prev := ev)
      values
  done

let test_jacobi_orthonormal_vectors () =
  let g = Prng.create ~seed:78L () in
  let n = 5 in
  let b = Matrix.init n n (fun _ _ -> Prng.float g -. 0.5) in
  let a = Matrix.add b (Matrix.transpose b) in
  let _, v = Linalg.jacobi_eigen a in
  let vtv = Matrix.mul (Matrix.transpose v) v in
  Alcotest.(check bool) "V^T V = I" true (Matrix.max_abs_diff vtv (Matrix.identity n) < 1e-9)

let test_principal_components_shape () =
  let a = Matrix.of_arrays [| [| 2.0; 0.0; 0.0 |]; [| 0.0; 5.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |] in
  let pc = Linalg.principal_components a ~k:2 in
  Alcotest.(check int) "rows" 3 (Matrix.rows pc);
  Alcotest.(check int) "cols" 2 (Matrix.cols pc);
  (* the first component must be the e2 direction (eigenvalue 5) *)
  Alcotest.(check (float 1e-10)) "dominant direction" 1.0 (Float.abs (Matrix.get pc 1 0))

let eigen_cases =
  [
    ("jacobi diagonal", test_jacobi_diagonal);
    ("jacobi reconstruction", test_jacobi_reconstruction);
    ("jacobi orthonormal vectors", test_jacobi_orthonormal_vectors);
    ("principal components shape", test_principal_components_shape);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) eigen_cases

(* --- Fvec views and kernels --------------------------------------------- *)

(* Comparisons are on the IEEE bit pattern, not within an epsilon. *)

let bits = Int64.bits_of_float

let check_bits msg a b = Alcotest.(check int64) msg (bits a) (bits b)

(* Embed [xs] as a view at offset [pad] inside a larger poisoned
   buffer, so any kernel that walks the wrong indices reads the poison
   and fails. *)
let view_of_array ~pad xs =
  let poison k = Array.make k 7.25e11 in
  Fvec.sub (Fvec.of_array (Array.concat [ poison pad; xs; poison 3 ])) pad (Array.length xs)

let fvec_view_gen =
  (* arrays through the interesting sizes (empty, singleton, longer),
     every view embedded at a generated offset *)
  QCheck.make
    ~print:(fun (xs, pad) ->
      Printf.sprintf "pad=%d [%s]" pad (String.concat "; " (Array.to_list (Array.map string_of_float xs))))
    QCheck.Gen.(
      pair (array_size (int_bound 24) (float_bound_exclusive 1e6 >>= fun m -> return (m -. 5e5))) (int_bound 3))

let fvec_qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"fvec: minmax equals (minimum, maximum)" ~count:300 fvec_view_gen (fun (xs, pad) ->
        let v = view_of_array ~pad xs in
        if Array.length xs = 0 then
          try
            ignore (Fvec.minmax v);
            false
          with Invalid_argument _ -> true
        else begin
          let mn, mx = Fvec.minmax v in
          bits mn = bits (Array.fold_left Float.min xs.(0) xs) && bits mx = bits (Array.fold_left Float.max xs.(0) xs)
        end);
    Test.make ~name:"fvec: of_array/to_array round-trip through offset views" ~count:300 fvec_view_gen
      (fun (xs, pad) ->
        let v = view_of_array ~pad xs in
        Fvec.to_array v = xs && Fvec.to_array (Fvec.of_array xs) = xs);
  ]

(* deterministic edge cases the generators cover only probabilistically *)
let test_fvec_edges () =
  let empty = Fvec.create 0 in
  Alcotest.(check (array (float 0.0))) "to_array empty" [||] (Fvec.to_array empty);
  let one = Fvec.of_array [| 3.5 |] in
  let mn, mx = Fvec.minmax one in
  check_bits "minmax singleton lo" 3.5 mn;
  check_bits "minmax singleton hi" 3.5 mx;
  (* a sub view writes through to the shared buffer; a copy does not *)
  let base = Fvec.of_array [| 0.; 1.; 2.; 3.; 4.; 5. |] in
  let mid = Fvec.sub base 2 3 in
  let snapshot = Fvec.copy mid in
  Fvec.blit_from_array [| 20.; 99.; 40.; 77. |] mid;
  check_bits "write through view" 99.0 (Fvec.get base 3);
  check_bits "an array's prefix, nothing past the view" 5.0 (Fvec.get base 5);
  Alcotest.check_raises "short array" (Invalid_argument "Fvec.blit_from_array: array shorter than the view")
    (fun () -> Fvec.blit_from_array [| 1.; 2. |] mid);
  Alcotest.(check (array (float 0.0))) "copy is detached" [| 2.; 3.; 4. |] (Fvec.to_array snapshot);
  Alcotest.(check int) "copy of the empty tail" 0 (Fvec.length (Fvec.copy (Fvec.sub base 6 0)))

let suite =
  suite
  @ [ Alcotest.test_case "fvec edge cases" `Quick test_fvec_edges ]
  @ List.map QCheck_alcotest.to_alcotest fvec_qcheck_cases

(* --- Fmat.quadratic_form against the Matrix contract ---------------------- *)

(* The form runs four rows at a time plus a one-row tail, and must
   make every add the [Matrix] reference makes.  Sizes 0..20 cover no
   full block (n < 4), every tail length and several blocks; the
   vector sits at offset 0 and at a generated offset, like a scratch
   view's. *)
let quadratic_form_prop =
  let entry = QCheck.Gen.(float_bound_exclusive 2e3 >>= fun x -> return (x -. 1e3)) in
  let gen =
    QCheck.Gen.(
      int_range 0 20 >>= fun n ->
      triple (array_size (return (n * n)) entry) (array_size (return n) entry) (int_range 1 3))
  in
  QCheck.Test.make ~name:"fmat: quadratic_form matches Matrix.dot/mul_vec bitwise, n = 0..20" ~count:500
    (QCheck.make
       ~print:(fun (m, d, pad) ->
         Printf.sprintf "n=%d pad=%d m=[%s] d=[%s]" (Array.length d) pad
           (String.concat "; " (Array.to_list (Array.map Printf.(sprintf "%h") m)))
           (String.concat "; " (Array.to_list (Array.map Printf.(sprintf "%h") d))))
       gen)
    (fun (m, d, pad) ->
      let n = Array.length d in
      let m = Matrix.init n n (fun i j -> m.((i * n) + j)) in
      let want = bits (Matrix.dot d (Matrix.mul_vec m d)) in
      let f = Fmat.of_matrix m in
      bits (Fmat.quadratic_form f (view_of_array ~pad:0 d)) = want
      && bits (Fmat.quadratic_form f (view_of_array ~pad d)) = want)

let suite = suite @ [ QCheck_alcotest.to_alcotest quadratic_form_prop ]

(* --- Prng known answers -------------------------------------------------------- *)

(* The first eight outputs of fixed generators, recorded before the
   state moved from boxed int64 fields to a byte buffer: every seeded
   stream in the repository derives from these. *)
let prng_kat =
  [
    ( "seed 0",
      (fun () -> Prng.create ~seed:0L ()),
      [|
        0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L; 0x6AA594F1262D2D2CL;
        0xBBA5AD4A1F842E59L; 0xFFEF8375D9EBCACAL; 0x6C160DEED2F54C98L; 0x8920AD648FC30A3FL;
      |] );
    ( "seed 42",
      (fun () -> Prng.create ~seed:42L ()),
      [|
        0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L; 0xECB8AD4703B360A1L;
        0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L; 0xB82154855A65DDB2L; 0xD99A2743EBE60087L;
      |] );
    ( "default seed",
      (fun () -> Prng.create ()),
      [|
        0x2B718947ED1F990CL; 0xE9CE662B4B21C3FDL; 0x5CD83FC331BCB763L; 0xE4EC72897C276934L;
        0x6F7BF1728E8EB011L; 0x6CEDE5531A00C844L; 0x0DDCD8E0AEF5D151L; 0x5AAEBC87B335335BL;
      |] );
    ( "split of seed 42",
      (fun () -> Prng.split (Prng.create ~seed:42L ())),
      [|
        0x8EE445D14631C453L; 0x106FA1A13296FE62L; 0x729A768806244CE5L; 0x91D83A17B20E6585L;
        0x38C33DF442FC70FDL; 0xE33CD1B92E2E42F1L; 0x3162280B9DCFA5EFL; 0xB4F9F0541228B854L;
      |] );
    ( "seed 42 after a split",
      (fun () ->
        let g = Prng.create ~seed:42L () in
        ignore (Prng.split g);
        g),
      [|
        0x6104D9866D113A7EL; 0xAE17533239E499A1L; 0xECB8AD4703B360A1L; 0xFDE6DC7FE2EC5E64L;
        0xC50DA53101795238L; 0xB82154855A65DDB2L; 0xD99A2743EBE60087L; 0xC2E96E726E97647EL;
      |] );
  ]

let draw8 g = Array.init 8 (fun _ -> Prng.bits64 g)

let test_prng_known_answers () =
  List.iter
    (fun (name, make, want) -> Alcotest.(check (array int64)) name want (draw8 (make ())))
    prng_kat

let test_prng_copy_independent () =
  let g = Prng.create ~seed:42L () in
  let c = Prng.copy g in
  let from_g = draw8 g in
  Alcotest.(check (array int64)) "a copy replays the stream" from_g (draw8 c);
  (* advancing one leaves the other where it was *)
  let g = Prng.create ~seed:42L () in
  let c = Prng.copy g in
  ignore (draw8 c);
  Alcotest.(check (array int64)) "the original is untouched by its copy" from_g (draw8 g)

(* --- Stats.percentile against a sort ------------------------------------------ *)

(* The definition [percentile] had before selection replaced the sort. *)
let sorted_percentile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
  let frac = rank -. Float.floor rank in
  (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let test_percentile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "p < 0" (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] (-0.5)));
  Alcotest.check_raises "p > 100" (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 100.5))

let percentile_prop =
  (* few distinct values, so ties are common; signed zeros and the odd
     nan are in the pool *)
  let value = QCheck.Gen.(oneof [ map float_of_int (int_range (-4) 4); float_range (-50.0) 50.0; oneofl [ 0.0; -0.0; nan ] ]) in
  let p = QCheck.Gen.(oneof [ oneofl [ 0.0; 10.0; 50.0; 90.0; 100.0 ]; float_range 0.0 100.0 ]) in
  QCheck.Test.make ~name:"Stats.percentile: selection picks the sort's order statistics" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (array float) float)
       QCheck.Gen.(pair (array_size (int_range 1 200) value) p))
    (fun (xs, p) ->
      let before = Array.copy xs in
      Float.equal (Stats.percentile xs p) (sorted_percentile xs p)
      && Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) before xs)

(* The fault pass selects in a buffer longer than the trace: only the
   prefix is read, and only the prefix is permuted. *)
let percentile_in_place_prop =
  QCheck.Test.make ~name:"Stats.percentile_in_place: the prefix's percentile, the tail untouched" ~count:300
    QCheck.(triple (array_of_size Gen.(int_range 1 100) (float_range (-9.0) 9.0)) (float_bound_inclusive 100.0) small_nat)
    (fun (xs, p, extra) ->
      let len = Array.length xs in
      let buf = Array.append xs (Array.init extra (fun i -> float_of_int (1000 + i))) in
      Float.equal (Stats.percentile_in_place buf ~len p) (Stats.percentile xs p)
      && Array.for_all (fun i -> buf.(len + i) = float_of_int (1000 + i)) (Array.init extra Fun.id))

let suite =
  suite
  @ List.map
      (fun (name, f) -> Alcotest.test_case name `Quick f)
      [
        ("prng known answers", test_prng_known_answers);
        ("prng copy is independent", test_prng_copy_independent);
        ("percentile rejects bad input", test_percentile_rejects);
      ]
  @ List.map QCheck_alcotest.to_alcotest [ percentile_prop; percentile_in_place_prop ]

(* --- pooled covariance against its per-class Matrix formula ------------- *)

(* The formula [Stats.pooled_covariance] had before it accumulated
   into one flat array: a fresh Matrix scatter per class, a fresh
   deviation row per profiling row, summed with [Matrix.add]. *)
let reference_pooled_covariance classes =
  let scatter rows mu =
    let d = Array.length mu in
    let s = Matrix.create d d in
    Array.iter
      (fun r ->
        let dvec = Array.init d (fun j -> r.(j) -. mu.(j)) in
        for i = 0 to d - 1 do
          if dvec.(i) <> 0.0 then
            for j = 0 to d - 1 do
              Matrix.set s i j (Matrix.get s i j +. (dvec.(i) *. dvec.(j)))
            done
        done)
      rows;
    s
  in
  let classes = Array.to_list classes |> List.filter (fun c -> Array.length c >= 2) in
  let d = Array.length (List.hd classes).(0) in
  let acc = ref (Matrix.create d d) and dof = ref 0 in
  List.iter
    (fun rows ->
      acc := Matrix.add !acc (scatter rows (Stats.mean_vector rows));
      dof := !dof + Array.length rows - 1)
    classes;
  Matrix.scale (1.0 /. float_of_int !dof) !acc

let pooled_covariance_prop =
  (* rows drawn from a small pool, so deviations repeat; signed zeros
     make zero and -0.0 deviations (a column of -0.0 has mean +0.0);
     classes of fewer than two rows are dropped by both *)
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun d ->
      let value = oneof [ map float_of_int (int_range (-3) 3); float_range (-5.0) 5.0; oneofl [ 0.0; -0.0 ] ] in
      array_size (int_range 1 4) (array_repeat d value) >>= fun pool ->
      let row = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
      pair (array_size (int_range 2 9) row) (list_size (int_range 0 3) (array_size (int_range 0 9) row))
      >|= fun (first, rest) -> Array.of_list (first :: rest))
  in
  QCheck.Test.make ~name:"Stats.pooled_covariance = the per-class Matrix formula, bit for bit" ~count:500
    (QCheck.make ~print:QCheck.Print.(array (array (array float))) gen)
    (fun classes ->
      let a = Stats.pooled_covariance classes and b = reference_pooled_covariance classes in
      let d = Matrix.rows b in
      Matrix.rows a = d
      && Matrix.cols a = d
      && List.for_all
           (fun i ->
             List.for_all
               (fun j -> Int64.bits_of_float (Matrix.get a i j) = Int64.bits_of_float (Matrix.get b i j))
               (List.init d Fun.id))
           (List.init d Fun.id))

let suite = suite @ [ QCheck_alcotest.to_alcotest pooled_covariance_prop ]
