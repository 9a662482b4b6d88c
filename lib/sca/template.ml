type t = {
  labels : int array;
  means : float array array;
  inv_cov : Mathkit.Fmat.t;
  log_det : float;
  pois : int array;
  center : float array;
  lin : float array array;
  offs : float array;
}

(* Every class shares the pooled inverse covariance P, so with
   m_k = mu_k - center and y = x - center,

     (x - mu_k)^T P (x - mu_k) = y^T P y - 2 (P m_k)^T y + m_k^T P m_k

   and only the last two terms depend on the class.  [lin] and [offs]
   hold the class-dependent constants, derived here once per template;
   scoring then needs one quadratic form (and only for an absolute
   density) plus one dot product per class.  Centring on the mean of
   the class means keeps y, and every term, at the scale of the
   Mahalanobis distances themselves (Choudary and Kuhn, "Efficient
   Template Attacks", CARDIS 2013). *)
let make ~labels ~means ~inv_cov ~log_det ~pois =
  let k = Array.length means in
  if k = 0 then invalid_arg "Template.make: no classes";
  if Array.length labels <> k then invalid_arg "Template.make: one label per class mean";
  let p = Mathkit.Matrix.of_arrays (Mathkit.Fmat.to_arrays inv_cov) in
  let d = Mathkit.Matrix.rows p in
  Array.iter
    (fun mu ->
      if Array.length mu <> d then invalid_arg "Template.make: a class mean does not match the covariance dimension")
    means;
  let center = Array.init d (fun j -> Array.fold_left (fun acc mu -> acc +. mu.(j)) 0.0 means /. float_of_int k) in
  let centred = Array.map (fun mu -> Array.mapi (fun j m -> m -. center.(j)) mu) means in
  let lin = Array.map (Mathkit.Matrix.mul_vec p) centred in
  let offs = Array.map2 Mathkit.Matrix.dot centred lin in
  { labels; means; inv_cov; log_det; pois; center; lin; offs }

let build ~pois classes =
  (match classes with [] -> invalid_arg "Template.build: no classes" | _ -> ());
  List.iter
    (fun (label, rows) ->
      if Array.length rows < 2 then
        invalid_arg (Printf.sprintf "Template.build: class %d needs >= 2 profiling vectors" label))
    classes;
  let labels = Array.of_list (List.map fst classes) in
  let means = Array.of_list (List.map (fun (_, rows) -> Mathkit.Stats.mean_vector rows) classes) in
  let pooled = Mathkit.Stats.pooled_covariance (Array.of_list (List.map snd classes)) in
  let d = Mathkit.Matrix.rows pooled in
  let mean_diag = Mathkit.Matrix.trace pooled /. float_of_int d in
  let eps = 1e-6 *. Float.max mean_diag 1e-12 in
  let cov = Mathkit.Linalg.regularize pooled eps in
  let inv_cov = Mathkit.Fmat.of_matrix (Mathkit.Linalg.inverse cov) in
  let log_det = Mathkit.Linalg.logdet cov in
  make ~labels ~means ~inv_cov ~log_det ~pois

let dimension t = Array.length t.center

(* Per-template reusable buffers.  [diff] holds x - center for the
   dot products and the quadratic form; [disc] the per-class
   discriminants; [ll]/[post]/[post_p] are the per-class score rows
   that the _fv entry points return BORROWED — valid until the next
   call on the same scratch. *)
type scratch = {
  diff : Mathkit.Fvec.t;
  disc : float array;
  ll : float array;
  post : float array;
  post_p : float array;
}

let make_scratch t =
  let k = Array.length t.labels in
  {
    diff = Mathkit.Fvec.create (dimension t);
    disc = Array.make k 0.0;
    ll = Array.make k 0.0;
    post = Array.make k 0.0;
    post_p = Array.make k 0.0;
  }

(* [s.diff] <- x - center, then [s.disc.(k)] <- lin.(k) . (x - center)
   - offs.(k) / 2: the class-dependent part of the log density, all a
   posterior needs.  Each dot product sums from 0.0 with j ascending,
   as [Matrix.dot] does. *)
let discriminants_fv t s x =
  let open Mathkit in
  let dim = Fvec.length x in
  if Array.length t.center <> dim then invalid_arg "Template.log_likelihoods_fv: length mismatch";
  if Fvec.length s.diff <> dim then invalid_arg "Template.log_likelihoods_fv: scratch dimension mismatch";
  let xbuf = Fvec.buffer x and xoff = Fvec.offset x in
  let ybuf = Fvec.buffer s.diff and yoff = Fvec.offset s.diff in
  Fvec.check_range xbuf ~off:xoff ~len:dim "Template.log_likelihoods_fv";
  Fvec.check_range ybuf ~off:yoff ~len:dim "Template.log_likelihoods_fv";
  let center = t.center in
  for j = 0 to dim - 1 do
    (* srclint: allow unsafe-index both view ranges check_range'd above, center length checked against dim *)
    Bigarray.Array1.unsafe_set ybuf (yoff + j) (Bigarray.Array1.unsafe_get xbuf (xoff + j) -. Array.unsafe_get center j)
  done;
  for c = 0 to Array.length t.lin - 1 do
    let row = t.lin.(c) in
    let acc = ref 0.0 in
    for j = 0 to dim - 1 do
      (* srclint: allow unsafe-index j < dim: the diff range is check_range'd and the lin row has the center's length *)
      acc := !acc +. (Array.unsafe_get row j *. Bigarray.Array1.unsafe_get ybuf (yoff + j))
    done;
    s.disc.(c) <- !acc -. (0.5 *. t.offs.(c))
  done

let log_2pi = log (2.0 *. Float.pi)

(* The full densities add the class-independent part, const - q / 2,
   to every discriminant: one quadratic form of x - center per window.
   [Fmat.quadratic_form] sums in the order of [Matrix.dot y
   (Matrix.mul_vec inv_cov y)], the order the test oracle uses. *)
let log_likelihoods_fv t s x =
  discriminants_fv t s x;
  let d = float_of_int (Mathkit.Fvec.length x) in
  let base = (-0.5 *. ((d *. log_2pi) +. t.log_det)) -. (0.5 *. Mathkit.Fmat.quadratic_form t.inv_cov s.diff) in
  for i = 0 to Array.length s.ll - 1 do
    s.ll.(i) <- base +. s.disc.(i)
  done;
  s.ll

(* [Array.fold_left Float.max neg_infinity xs], with the common case
   settled by a strict [>] (Float.max's sign_bit test boxes an Int64
   per call); ties and NaNs fall back to the real Float.max, so the
   result is bitwise the plain fold's. *)
let max_fold xs =
  let acc = ref neg_infinity in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    if x > !acc then acc := x else if not (x < !acc) then acc := Float.max !acc x
  done;
  !acc

(* [Stats.log_sum_exp] with the peak already in hand: same guard, same
   ascending accumulation. *)
let lse_with_max xs m =
  if Float.is_nan m || m = neg_infinity then m
  else m +. log (Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 xs)

(* [out] <- softmax of [xs]: exp (x - log_sum_exp xs), element-wise.
   [out] may be [xs] itself. *)
let softmax_into xs out =
  let z = lse_with_max xs (max_fold xs) in
  for i = 0 to Array.length xs - 1 do
    out.(i) <- exp (xs.(i) -. z)
  done

(* A posterior normalises the class-independent part away, so the
   posteriors are taken over the discriminants alone. *)
let posterior_fv t s x =
  discriminants_fv t s x;
  softmax_into s.disc s.post;
  s.post

let classify_fv t s x = t.labels.(Mathkit.Stats.argmax (posterior_fv t s x))

(* The row a prior enters the priored posterior through, built once per
   prior: every scoring call adds it as it stands. *)
let log_prior t priors =
  if Array.length priors <> Array.length t.labels then invalid_arg "Template.log_prior: prior length mismatch";
  Array.map (fun pi -> log (Float.max pi 1e-300)) priors

(* [s.post_p] <- the posterior over [s.disc] + [log_prior]. *)
let priored_into ~log_prior s =
  for i = 0 to Array.length s.disc - 1 do
    s.post_p.(i) <- s.disc.(i) +. log_prior.(i)
  done;
  softmax_into s.post_p s.post_p

type scores = { s_best_ll : float; s_post : float array; s_post_p : float array }

(* One scoring pass feeding every consumer of a template's scores: the
   best-class log density (fit gating), the flat-prior posterior
   (classification, confidence) and the priored posterior (the joint
   Bayesian posterior).  Each row carries the bits of the separate
   computation ([log_likelihoods_fv]'s maximum, [posterior_fv], and
   [priored_posterior_fv]) — same values in the same order — so
   fusing several calls into one [scores_fv] is bit-invisible to every
   consumer.  Both rows are BORROWED, valid until the next call on the
   same scratch. *)
let scores_fv ~log_prior t s x =
  let best = max_fold (log_likelihoods_fv t s x) in
  softmax_into s.disc s.post;
  priored_into ~log_prior s;
  { s_best_ll = best; s_post = s.post; s_post_p = s.post_p }

(* The priored posterior row alone, for a template whose only consumed
   output is its factor of the joint posterior: the discriminants
   suffice, so no quadratic form is computed.  Same bits as
   [scores_fv]'s row.  BORROWED like the scores rows. *)
let priored_posterior_fv ~log_prior t s x =
  discriminants_fv t s x;
  priored_into ~log_prior s;
  s.post_p
