(* Boxed [float array] reference implementations of template scoring and
   of the five grading quantities, in two forms.

   - The discriminant form is the oracle the seed-54398 property in
     test_sca holds [Sca.Attack.grade_fv], [sign_fit_fv] and
     [value_fit_fv] to, bit for bit.  Plain arrays and the boxed Matrix
     kernels, each quantity computed by its own scoring pass, and the
     derived center/lin/offs recomputed here from the template's
     parameters: nothing shared with the Fvec path beyond the trained
     parameters.
   - The Mahalanobis form, (x - mu)^T P (x - mu) per class, is the
     textbook density the discriminant form rewrites.  The bound tests
     hold the library to it within rounding: log likelihoods within
     1e-9 relative, and the same verdicts and fit-floor sides. *)

(* --- shared ----------------------------------------------------------------- *)

(* Squared Mahalanobis distance (x-mu)^T S^-1 (x-mu): the row sums of
   [Matrix.mul_vec], then [Matrix.dot] — the order [Fmat.quadratic_form]
   must replicate. *)
let mahalanobis_sq ~inv_cov x mu =
  if Array.length x <> Array.length mu then invalid_arg "Scoring_oracle.mahalanobis_sq: length mismatch";
  let d = Array.init (Array.length x) (fun i -> x.(i) -. mu.(i)) in
  Mathkit.Matrix.dot d (Mathkit.Matrix.mul_vec inv_cov d)

let inv_cov (t : Sca.Template.t) = Mathkit.Matrix.of_arrays (Mathkit.Fmat.to_arrays t.Sca.Template.inv_cov)

let const (t : Sca.Template.t) x =
  -0.5 *. ((float_of_int (Array.length x) *. log (2.0 *. Float.pi)) +. t.Sca.Template.log_det)

let softmax xs =
  let z = Mathkit.Stats.log_sum_exp xs in
  Array.map (fun l -> exp (l -. z)) xs

let log_prior priors = Array.map (fun p -> log (Float.max p 1e-300)) priors
let best xs = Array.fold_left Float.max neg_infinity xs

(* --- the Mahalanobis form ----------------------------------------------------- *)

let mahalanobis_log_likelihoods (t : Sca.Template.t) x =
  let inv_cov = inv_cov t in
  Array.map (fun mu -> const t x -. (0.5 *. mahalanobis_sq ~inv_cov x mu)) t.Sca.Template.means

(* --- the discriminant form ---------------------------------------------------- *)

(* center = mean of the class means, summed in class order *)
let center (t : Sca.Template.t) =
  let means = t.Sca.Template.means in
  let k = Array.length means in
  Array.init (Array.length means.(0)) (fun j ->
      let acc = ref 0.0 in
      for c = 0 to k - 1 do
        acc := !acc +. means.(c).(j)
      done;
      !acc /. float_of_int k)

let centred t v =
  let c = center t in
  Array.mapi (fun j x -> x -. c.(j)) v

(* lin.(k) = P (mu_k - center), offs.(k) = (mu_k - center) . lin.(k) *)
let lin t = Array.map (fun mu -> Mathkit.Matrix.mul_vec (inv_cov t) (centred t mu)) t.Sca.Template.means
let offs t = Array.map2 (fun mu l -> Mathkit.Matrix.dot (centred t mu) l) t.Sca.Template.means (lin t)

let discriminants t x =
  let y = centred t x in
  Array.map2 (fun l o -> Mathkit.Matrix.dot l y -. (0.5 *. o)) (lin t) (offs t)

let log_likelihoods t x =
  let y = centred t x in
  let base = const t x -. (0.5 *. Mathkit.Matrix.dot y (Mathkit.Matrix.mul_vec (inv_cov t) y)) in
  Array.map (fun delta -> base +. delta) (discriminants t x)

let posterior ?priors t x =
  let scores = discriminants t x in
  (match priors with
  | Some p -> Array.iteri (fun i lp -> scores.(i) <- scores.(i) +. lp) (log_prior p)
  | None -> ());
  softmax scores

let classify (t : Sca.Template.t) x = t.Sca.Template.labels.(Mathkit.Stats.argmax (posterior t x))

(* --- the combined attack: the five grading quantities ---------------------------- *)

let sign_vec (a : Sca.Attack.t) w = Sca.Sosd.pick w a.Sca.Attack.pois_sign

let group (a : Sca.Attack.t) = function
  | -1 -> (a.Sca.Attack.neg_template, a.Sca.Attack.neg_priors, a.Sca.Attack.pois_neg)
  | _ -> (a.Sca.Attack.pos_template, a.Sca.Attack.pos_priors, a.Sca.Attack.pois_pos)

let sign_confidence a w = Array.fold_left Float.max 0.0 (posterior a.Sca.Attack.sign_template (sign_vec a w))

(* the fits, in either form *)
let sign_fit_with ll a w = best (ll a.Sca.Attack.sign_template (sign_vec a w))

let value_fit_with ll a ~sign w =
  match sign with
  | -1 | 1 ->
      let template, _, pois = group a sign in
      best (ll template (Sca.Sosd.pick w pois))
  | _ -> sign_fit_with ll a w

let sign_fit = sign_fit_with log_likelihoods
let value_fit = value_fit_with log_likelihoods
let mahalanobis_sign_fit = sign_fit_with mahalanobis_log_likelihoods
let mahalanobis_value_fit = value_fit_with mahalanobis_log_likelihoods

(* maximum likelihood: the sign first, then the value within its group *)
let classify_window a w : Sca.Attack.verdict =
  let sign = classify a.Sca.Attack.sign_template (sign_vec a w) in
  if sign = 0 then { sign; value = 0; posterior = [| (0, 1.0) |] }
  else begin
    let template, _, pois = group a sign in
    let post = posterior template (Sca.Sosd.pick w pois) in
    let labels = template.Sca.Template.labels in
    { sign; value = labels.(Mathkit.Stats.argmax post); posterior = Array.mapi (fun i l -> (l, post.(i))) labels }
  end

(* The same two-stage verdict read off the Mahalanobis densities:
   (sign, value). *)
let mahalanobis_verdict a w =
  let argmax_label (t : Sca.Template.t) x =
    t.Sca.Template.labels.(Mathkit.Stats.argmax (mahalanobis_log_likelihoods t x))
  in
  match argmax_label a.Sca.Attack.sign_template (sign_vec a w) with
  | 0 -> (0, 0)
  | sign ->
      let template, _, pois = group a sign in
      (sign, argmax_label template (Sca.Sosd.pick w pois))

(* the Bayesian joint posterior: P(v) = P(sign of v) * P(v | its group) *)
let posterior_all a w =
  let sign_post = posterior ~priors:a.Sca.Attack.prior_of_sign a.Sca.Attack.sign_template (sign_vec a w) in
  let p_of_sign s =
    let acc = ref 0.0 in
    Array.iteri (fun i l -> if l = s then acc := sign_post.(i)) a.Sca.Attack.sign_template.Sca.Template.labels;
    !acc
  in
  let entries = ref [ (0, p_of_sign 0) ] in
  List.iter
    (fun s ->
      let template, priors, pois = group a s in
      let post = posterior ~priors template (Sca.Sosd.pick w pois) in
      let ps = p_of_sign s in
      Array.iteri (fun i l -> entries := (l, ps *. post.(i)) :: !entries) template.Sca.Template.labels)
    [ -1; 1 ];
  let arr = Array.of_list !entries in
  Array.sort (fun (x, _) (y, _) -> compare x y) arr;
  arr
