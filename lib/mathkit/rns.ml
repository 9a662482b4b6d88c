type t = {
  primes : int array;
  moduli : Modular.modulus array;
  product : Bignum.t;
  punctured : Bignum.t array;  (** q / q_i *)
  inv_punctured : int array;  (** (q / q_i)^{-1} mod q_i *)
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let create prime_list =
  (match prime_list with [] -> invalid_arg "Rns.create: empty basis" | _ -> ());
  let primes = Array.of_list prime_list in
  let k = Array.length primes in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if gcd primes.(i) primes.(j) <> 1 then invalid_arg "Rns.create: basis not coprime"
    done
  done;
  let moduli = Array.map Modular.modulus primes in
  let product = Array.fold_left (fun acc p -> Bignum.mul acc (Bignum.of_int p)) Bignum.one primes in
  let punctured = Array.map (fun p -> Bignum.div product (Bignum.of_int p)) primes in
  let inv_punctured =
    Array.mapi (fun i md -> Modular.inv md (Bignum.mod_int punctured.(i) primes.(i))) moduli
  in
  { primes; moduli; product; punctured; inv_punctured }

let primes b = Array.copy b.primes
let count b = Array.length b.primes
let decompose b x =
  if Bignum.compare x b.product >= 0 then invalid_arg "Rns.decompose: value out of range";
  Array.map (fun p -> Bignum.mod_int x p) b.primes

let compose b residues =
  if Array.length residues <> count b then invalid_arg "Rns.compose: residue count mismatch";
  let acc = ref Bignum.zero in
  for i = 0 to count b - 1 do
    let r = Modular.reduce b.moduli.(i) residues.(i) in
    let coeff = Modular.mul b.moduli.(i) r b.inv_punctured.(i) in
    acc := Bignum.add !acc (Bignum.mul b.punctured.(i) (Bignum.of_int coeff))
  done;
  Bignum.rem !acc b.product

let compose_centered b residues =
  let v = compose b residues in
  let half = Bignum.shift_right b.product 1 in
  if Bignum.compare v half > 0 then (Bignum.sub b.product v, true) else (v, false)
