type t = {
  mutable dim : int;  (** embedding dimension, incl. Kannan coordinate *)
  log_lattice_vol : float;
  variances : float array;
  active : bool array;
  mutable perfect_count : int;
}

let create lwe =
  {
    dim = Lwe.embedding_dim lwe;
    log_lattice_vol = Lwe.logvol_lattice lwe;
    variances = Lwe.variances lwe;
    active = Array.make (Lwe.embedding_dim lwe - 1) true;
    perfect_count = 0;
  }

let dim t = t.dim

let check_coord t i =
  if i < 0 || i >= Array.length t.variances then invalid_arg "Dbdd: coordinate out of range";
  if not t.active.(i) then invalid_arg "Dbdd: coordinate already integrated out"

let coordinate_variance t i =
  check_coord t i;
  t.variances.(i)

(* Normalised volume: rescale each active coordinate to unit variance;
   the lattice volume divides by prod sigma_i.  The Kannan coordinate
   is exact (variance 0) and contributes nothing. *)
let logvol t =
  let acc = ref t.log_lattice_vol in
  Array.iteri (fun i v -> if t.active.(i) then acc := !acc -. (0.5 *. log v)) t.variances;
  !acc

let perfect_hint t i =
  check_coord t i;
  (* v = e_i is a primitive dual vector: vol(Lambda ∩ v_perp) = vol(Lambda);
     the coordinate leaves the normalisation product. *)
  t.active.(i) <- false;
  t.dim <- t.dim - 1;
  t.perfect_count <- t.perfect_count + 1

let approximate_hint t i ~measurement_variance =
  check_coord t i;
  if measurement_variance < 0.0 then invalid_arg "Dbdd.approximate_hint: negative variance";
  if measurement_variance = 0.0 then perfect_hint t i
  else begin
    let v = t.variances.(i) in
    t.variances.(i) <- v *. measurement_variance /. (v +. measurement_variance)
  end

let posterior_hint t i ~posterior_variance =
  check_coord t i;
  if posterior_variance < 0.0 then invalid_arg "Dbdd.posterior_hint: negative variance";
  if posterior_variance <= 1e-12 then perfect_hint t i
  else if posterior_variance < t.variances.(i) then t.variances.(i) <- posterior_variance

let integrated t = t.perfect_count
let estimate_bikz t = Bkz_model.beta_for ~d:t.dim ~logvol:(logvol t)
