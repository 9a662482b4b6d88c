type plan = {
  md : Modular.modulus;
  n : int;
  log_n : int;
  psi_powers : int array;  (** psi^i for i < n, psi a primitive 2n-th root *)
  psi_inv_powers : int array;
  omega_powers : int array;  (** omega^i for i < n/2, omega = psi^2 *)
  omega_inv_powers : int array;
  n_inv : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let ilog2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let is_friendly ~q ~n = is_pow2 n && Modular.is_prime q && (q - 1) mod (2 * n) = 0

let find_prime ~n ~bits =
  Modular.first_prime_congruent ~start:(1 lsl (bits - 1)) ~modulo:(2 * n) ~residue:1

let plan md n =
  let q = md.Modular.value in
  if not (is_friendly ~q ~n) then invalid_arg "Ntt.plan: modulus not NTT-friendly for this degree";
  let psi = Modular.nth_root_of_unity md (2 * n) in
  let psi_inv = Modular.inv md psi in
  let omega = Modular.mul md psi psi in
  let omega_inv = Modular.inv md omega in
  let powers base count =
    let a = Array.make count 1 in
    for i = 1 to count - 1 do
      a.(i) <- Modular.mul md a.(i - 1) base
    done;
    a
  in
  {
    md;
    n;
    log_n = ilog2 n;
    psi_powers = powers psi n;
    psi_inv_powers = powers psi_inv n;
    omega_powers = powers omega (max 1 (n / 2));
    omega_inv_powers = powers omega_inv (max 1 (n / 2));
    n_inv = Modular.inv md n;
  }

let modulus p = p.md

let bit_reverse_permute a =
  let n = Array.length a in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let t = a.(i) in
      a.(i) <- a.(!j);
      a.(!j) <- t
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done

(* Iterative Cooley–Tukey over a coefficient array already scaled for the
   negacyclic twist.  [tw] holds omega^i (or inverse powers). *)
let core p tw a =
  let md = p.md and n = p.n in
  bit_reverse_permute a;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let step = n / !len in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        let w = tw.(k * step) in
        let u = a.(!i + k) and v = Modular.mul md w a.(!i + k + half) in
        a.(!i + k) <- Modular.add md u v;
        a.(!i + k + half) <- Modular.sub md u v
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let check_len p a = if Array.length a <> p.n then invalid_arg "Ntt: wrong vector length"

let forward p a =
  check_len p a;
  let md = p.md in
  for i = 0 to p.n - 1 do
    a.(i) <- Modular.mul md a.(i) p.psi_powers.(i)
  done;
  core p p.omega_powers a

let inverse p a =
  check_len p a;
  let md = p.md in
  core p p.omega_inv_powers a;
  for i = 0 to p.n - 1 do
    a.(i) <- Modular.mul md (Modular.mul md a.(i) p.n_inv) p.psi_inv_powers.(i)
  done

let multiply p a b =
  check_len p a;
  check_len p b;
  let md = p.md in
  let fa = Array.copy a and fb = Array.copy b in
  forward p fa;
  forward p fb;
  let c = Array.init p.n (fun i -> Modular.mul md fa.(i) fb.(i)) in
  inverse p c;
  c
