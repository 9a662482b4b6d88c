type t = {
  n : int;
  coeff_modulus : int array;
  plain_modulus : int;
  noise : Mathkit.Gaussian.clipped;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~n ~coeff_modulus ~plain_modulus =
  if not (is_pow2 n) then invalid_arg "Params.create: n must be a power of two";
  (match coeff_modulus with [] -> invalid_arg "Params.create: empty coefficient modulus" | _ -> ());
  List.iter
    (fun q ->
      if not (Mathkit.Ntt.is_friendly ~q ~n) then
        invalid_arg (Printf.sprintf "Params.create: %d is not an NTT-friendly prime for n = %d" q n))
    coeff_modulus;
  if List.length (List.sort_uniq compare coeff_modulus) <> List.length coeff_modulus then
    invalid_arg "Params.create: duplicate primes in the modulus chain";
  if plain_modulus <= 1 then invalid_arg "Params.create: plain modulus must exceed 1";
  if List.exists (fun q -> plain_modulus >= q) coeff_modulus then
    invalid_arg "Params.create: plain modulus must be below every coefficient prime";
  { n; coeff_modulus = Array.of_list coeff_modulus; plain_modulus; noise = Mathkit.Gaussian.seal_default }

let seal_128_1024 = create ~n:1024 ~coeff_modulus:[ 132120577 ] ~plain_modulus:256

let toy () =
  let n = 16 in
  let q = Mathkit.Ntt.find_prime ~n ~bits:20 in
  create ~n ~coeff_modulus:[ q ] ~plain_modulus:64

let total_modulus t =
  Array.fold_left (fun acc q -> Mathkit.Bignum.mul acc (Mathkit.Bignum.of_int q)) Mathkit.Bignum.one t.coeff_modulus

let delta t = Mathkit.Bignum.div (total_modulus t) (Mathkit.Bignum.of_int t.plain_modulus)

let delta_mod t =
  let d = delta t in
  Array.map (fun q -> Mathkit.Bignum.mod_int d q) t.coeff_modulus

let pp fmt t =
  Format.fprintf fmt "BFV(n=%d, q=%s (%d primes), t=%d, sigma=%.2f)" t.n
    (Mathkit.Bignum.to_string (total_modulus t))
    (Array.length t.coeff_modulus) t.plain_modulus t.noise.Mathkit.Gaussian.sigma
