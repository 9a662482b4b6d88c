(* Experimental root-Hermite factors for small block sizes (the
   asymptotic formula misbehaves below ~40); the table matches the one
   shipped with the leaky-LWE-estimator of Dachman-Soled et al. *)
let small_beta_table =
  [| (2.0, 1.02190); (5.0, 1.01862); (10.0, 1.01616); (15.0, 1.01485); (20.0, 1.01420); (25.0, 1.01342); (28.0, 1.01331); (40.0, 1.01295) |]

let delta_asymptotic beta =
  ((beta /. (2.0 *. Float.pi *. Float.exp 1.0)) *. ((Float.pi *. beta) ** (1.0 /. beta)))
  ** (1.0 /. (2.0 *. (beta -. 1.0)))

let delta beta =
  if beta < 2.0 then invalid_arg "Bkz_model.delta: beta < 2";
  if beta > 40.0 then delta_asymptotic beta
  else begin
    (* linear interpolation in the experimental table *)
    let rec go i =
      if i >= Array.length small_beta_table - 1 then snd small_beta_table.(i)
      else begin
        let b0, d0 = small_beta_table.(i) and b1, d1 = small_beta_table.(i + 1) in
        if beta <= b1 then d0 +. ((d1 -. d0) *. (beta -. b0) /. (b1 -. b0)) else go (i + 1)
      end
    in
    go 0
  end

(* GSA intersect: the normalised secret has unit variance per
   coordinate, so its projection on the last beta-dimensional block has
   expected norm sqrt(beta); BKZ-beta finds it when that projection is
   no longer than the (d-beta)-th Gram-Schmidt norm
   delta^(2 beta - d - 1) vol^(1/d). *)
let condition_holds ~d ~logvol beta =
  let lhs = 0.5 *. log beta in
  let rhs = ((2.0 *. beta) -. float_of_int d -. 1.0) *. log (delta beta) +. (logvol /. float_of_int d) in
  lhs <= rhs

let beta_for ~d ~logvol =
  if d < 3 then 2.0
  else if condition_holds ~d ~logvol 2.0 then 2.0
  else if not (condition_holds ~d ~logvol (float_of_int d)) then float_of_int d
  else begin
    (* binary search for the crossing of the (monotone in the relevant
       range) success condition *)
    let lo = ref 2.0 and hi = ref (float_of_int d) in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if condition_holds ~d ~logvol mid then hi := mid else lo := mid
    done;
    !hi
  end

let security_bits bikz = bikz /. 2.98

let core_svp_classical_bits bikz = 0.292 *. bikz
let core_svp_quantum_bits bikz = 0.265 *. bikz

let cost_summary bikz =
  [
    ("paper rule (bikz / 2.98)", security_bits bikz);
    ("core-SVP classical (0.292 b)", core_svp_classical_bits bikz);
    ("core-SVP quantum (0.265 b)", core_svp_quantum_bits bikz);
  ]
