(* Boxed [float array] reference implementation of template scoring and
   of the five grading quantities — the oracle the seed-54398 property
   in test_sca holds [Sca.Attack.grade_fv], [sign_fit_fv] and
   [value_fit_fv] to, bit for bit.  Plain arrays and the boxed Matrix
   kernels, each quantity computed by its own scoring pass: nothing
   shared with the Fvec path beyond the trained templates. *)

(* --- one template ------------------------------------------------------------ *)

(* Squared Mahalanobis distance (x-mu)^T S^-1 (x-mu): the row sums of
   [Matrix.mul_vec], then [Matrix.dot] — the order [Fmat.quadratic_form]
   must replicate. *)
let mahalanobis_sq ~inv_cov x mu =
  if Array.length x <> Array.length mu then invalid_arg "Scoring_oracle.mahalanobis_sq: length mismatch";
  let d = Array.init (Array.length x) (fun i -> x.(i) -. mu.(i)) in
  Mathkit.Matrix.dot d (Mathkit.Matrix.mul_vec inv_cov d)

let log_likelihoods (t : Sca.Template.t) x =
  let d = float_of_int (Array.length x) in
  let const = -0.5 *. ((d *. log (2.0 *. Float.pi)) +. t.Sca.Template.log_det) in
  let inv_cov = Mathkit.Matrix.of_arrays (Mathkit.Fmat.to_arrays t.Sca.Template.inv_cov) in
  Array.map (fun mu -> const -. (0.5 *. mahalanobis_sq ~inv_cov x mu)) t.Sca.Template.means

let posterior ?priors t x =
  let ll = log_likelihoods t x in
  (match priors with
  | Some p -> Array.iteri (fun i pi -> ll.(i) <- ll.(i) +. log (Float.max pi 1e-300)) p
  | None -> ());
  let z = Mathkit.Stats.log_sum_exp ll in
  Array.map (fun l -> exp (l -. z)) ll

let classify ?priors (t : Sca.Template.t) x = t.Sca.Template.labels.(Mathkit.Stats.argmax (posterior ?priors t x))

let best_log_likelihood t x = Array.fold_left Float.max neg_infinity (log_likelihoods t x)

(* --- the combined attack: the five grading quantities ---------------------------- *)

let sign_vec (a : Sca.Attack.t) w = Sca.Sosd.pick w a.Sca.Attack.pois_sign

let group (a : Sca.Attack.t) = function
  | -1 -> (a.Sca.Attack.neg_template, a.Sca.Attack.neg_priors, a.Sca.Attack.pois_neg)
  | _ -> (a.Sca.Attack.pos_template, a.Sca.Attack.pos_priors, a.Sca.Attack.pois_pos)

let sign_confidence a w = Array.fold_left Float.max 0.0 (posterior a.Sca.Attack.sign_template (sign_vec a w))
let sign_fit a w = best_log_likelihood a.Sca.Attack.sign_template (sign_vec a w)

let value_fit a ~sign w =
  match sign with
  | -1 | 1 ->
      let template, _, pois = group a sign in
      best_log_likelihood template (Sca.Sosd.pick w pois)
  | _ -> sign_fit a w

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
