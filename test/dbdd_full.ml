(* Full-matrix DBDD (Dachman-Soled et al.): tracks the complete
   ellipsoid (mean vector, covariance matrix), so a hint on any linear
   form <s, v> can be integrated in O(d^2).  The library's diagonal
   [Hints.Dbdd] handles the coordinate hints the RevEAL attack emits in
   O(1); this is its test oracle at small d. *)

type t = {
  mutable dim : int;  (** embedding dimension incl. Kannan coordinate *)
  mutable log_lattice_vol : float;
  mutable logdet_cov : float;  (** log-det of the covariance on its support *)
  mutable rank : int;  (** support dimension of the covariance *)
  mu : float array;
  cov : Mathkit.Matrix.t;
}

let of_parts ~logvol_lattice ~mean ~cov =
  let d = Array.length mean in
  if Mathkit.Matrix.rows cov <> d || Mathkit.Matrix.cols cov <> d then
    invalid_arg "Dbdd_full.of_parts: dimension mismatch";
  let logdet = ref 0.0 in
  for i = 0 to d - 1 do
    (* initial covariances are diagonal in all our constructions *)
    logdet := !logdet +. log (Mathkit.Matrix.get cov i i)
  done;
  { dim = d + 1; log_lattice_vol = logvol_lattice; logdet_cov = !logdet; rank = d; mu = Array.copy mean; cov = Mathkit.Matrix.copy cov }

let create lwe =
  let vars = Hints.Lwe.variances lwe in
  let d = Array.length vars in
  let cov = Mathkit.Matrix.init d d (fun i j -> if i = j then vars.(i) else 0.0) in
  of_parts ~logvol_lattice:(Hints.Lwe.logvol_lattice lwe) ~mean:(Array.make d 0.0) ~cov

let dim t = t.dim
let mean t = Array.copy t.mu
let covariance t = Mathkit.Matrix.copy t.cov

let sigma_v t v = Mathkit.Matrix.mul_vec t.cov v

let norm_sq v = Mathkit.Matrix.dot v v

let perfect_hint t ~v ~value =
  if Array.length v <> Array.length t.mu then invalid_arg "Dbdd_full.perfect_hint: dimension mismatch";
  let sv = sigma_v t v in
  let vsv = Mathkit.Matrix.dot v sv in
  if vsv <= 1e-12 then invalid_arg "Dbdd_full.perfect_hint: hint direction outside ellipsoid support";
  let gap = value -. Mathkit.Matrix.dot v t.mu in
  (* mu' = mu + gap/(v Sigma v) Sigma v ; Sigma' = Sigma - (Sigma v)(Sigma v)^T / (v Sigma v) *)
  Mathkit.Matrix.axpy (gap /. vsv) sv t.mu;
  let d = Array.length t.mu in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      Mathkit.Matrix.set t.cov i j (Mathkit.Matrix.get t.cov i j -. (sv.(i) *. sv.(j) /. vsv))
    done
  done;
  (* volume: vol' = vol * ||v|| (primitive dual vector assumption);
     covariance support shrinks: det' = det * ||v||^2 / (v Sigma v) *)
  t.log_lattice_vol <- t.log_lattice_vol +. (0.5 *. log (norm_sq v));
  t.logdet_cov <- t.logdet_cov +. log (norm_sq v) -. log vsv;
  t.rank <- t.rank - 1;
  t.dim <- t.dim - 1

let approximate_hint t ~v ~value ~measurement_variance =
  if measurement_variance <= 0.0 then perfect_hint t ~v ~value
  else begin
    let sv = sigma_v t v in
    let vsv = Mathkit.Matrix.dot v sv in
    if vsv > 1e-12 then begin
      let denom = vsv +. measurement_variance in
      let gap = value -. Mathkit.Matrix.dot v t.mu in
      Mathkit.Matrix.axpy (gap /. denom) sv t.mu;
      let d = Array.length t.mu in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          Mathkit.Matrix.set t.cov i j (Mathkit.Matrix.get t.cov i j -. (sv.(i) *. sv.(j) /. denom))
        done
      done;
      (* determinant lemma: det' = det * sigma_eps^2 / (v Sigma v + sigma_eps^2) *)
      t.logdet_cov <- t.logdet_cov +. log measurement_variance -. log denom
    end
  end

let logvol t = t.log_lattice_vol -. (0.5 *. t.logdet_cov)
let estimate_bikz t = Hints.Bkz_model.beta_for ~d:t.dim ~logvol:(logvol t)
