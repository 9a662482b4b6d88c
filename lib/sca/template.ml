type t = {
  labels : int array;
  means : float array array;
  inv_cov : Mathkit.Fmat.t;
  log_det : float;
  pois : int array;
}

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
  { labels; means; inv_cov; log_det; pois }

let dimension t = match t.means with [||] -> 0 | ms -> Array.length ms.(0)

(* Per-template reusable buffers.  [diff] holds x - mu for the fused
   quadratic form; [ll]/[post] are the per-class score rows that the
   _fv entry points return BORROWED — valid until the next call on the
   same scratch. *)
type scratch = { diff : Mathkit.Fvec.t; ll : float array; post : float array; post_p : float array }

let make_scratch ?arena t =
  let d = dimension t in
  let diff =
    match arena with
    | Some a -> Mathkit.Fvec.Scratch.alloc a d
    | None -> Mathkit.Fvec.create d
  in
  let k = Array.length t.labels in
  { diff; ll = Array.make k 0.0; post = Array.make k 0.0; post_p = Array.make k 0.0 }

(* [Fmat.quadratic_form] replicates the accumulation order of
   [Matrix.dot d (Matrix.mul_vec inv_cov d)] exactly, so the scores
   equal the boxed Mahalanobis arithmetic of the test oracle bit for
   bit. *)
let log_likelihoods_fv t s x =
  let open Mathkit in
  let dim = Fvec.length x in
  if Fvec.length s.diff <> dim then invalid_arg "Template.log_likelihoods_fv: scratch dimension mismatch";
  let d = float_of_int dim in
  let const = -0.5 *. ((d *. log (2.0 *. Float.pi)) +. t.log_det) in
  let xbuf = Fvec.buffer x and xoff = Fvec.offset x in
  let dbuf = Fvec.buffer s.diff and doff = Fvec.offset s.diff in
  Fvec.check_range xbuf ~off:xoff ~len:dim "Template.log_likelihoods_fv";
  Fvec.check_range dbuf ~off:doff ~len:dim "Template.log_likelihoods_fv";
  Array.iteri
    (fun k mu ->
      if Array.length mu <> dim then invalid_arg "Template.log_likelihoods_fv: length mismatch";
      for j = 0 to dim - 1 do
        (* srclint: allow unsafe-index both view ranges check_range'd above, mu length checked per class *)
        Bigarray.Array1.unsafe_set dbuf (doff + j) (Bigarray.Array1.unsafe_get xbuf (xoff + j) -. Array.unsafe_get mu j)
      done;
      s.ll.(k) <- const -. (0.5 *. Fmat.quadratic_form t.inv_cov s.diff))
    t.means;
  s.ll

let posterior_fv t s x =
  let ll = log_likelihoods_fv t s x in
  let z = Mathkit.Stats.log_sum_exp ll in
  for i = 0 to Array.length ll - 1 do
    s.post.(i) <- exp (ll.(i) -. z)
  done;
  s.post

let classify_fv t s x = t.labels.(Mathkit.Stats.argmax (posterior_fv t s x))

type scores = { s_best_ll : float; s_post : float array; s_post_p : float array }

(* One ll pass feeding every consumer of a template's scores: the
   best-class log density (fit gating), the flat-prior posterior
   (classification, confidence) and the priored posterior (the joint
   Bayesian posterior).  Each derived row replicates the arithmetic of
   [log_likelihoods_fv]/[posterior_fv] exactly — same values in the
   same order — so fusing several calls into one [scores_fv] is
   bit-invisible to every consumer.  Both rows are BORROWED, valid
   until the next call on the same scratch. *)
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

let scores_fv ~priors t s x =
  let ll = log_likelihoods_fv t s x in
  let k = Array.length ll in
  (* log_sum_exp's internal peak IS the best-class log density: one
     fold serves both. *)
  let best = max_fold ll in
  let z = lse_with_max ll best in
  for i = 0 to k - 1 do
    s.post.(i) <- exp (ll.(i) -. z)
  done;
  if Array.length priors <> k then invalid_arg "Template.scores_fv: prior length mismatch";
  Array.iteri (fun i pi -> ll.(i) <- ll.(i) +. log (Float.max pi 1e-300)) priors;
  let zp = lse_with_max ll (max_fold ll) in
  for i = 0 to k - 1 do
    s.post_p.(i) <- exp (ll.(i) -. zp)
  done;
  { s_best_ll = best; s_post = s.post; s_post_p = s.post_p }

(* The priored posterior row alone — [scores_fv] minus the flat
   posterior and the best density, for a template whose only consumed
   output is its factor of the joint posterior.  Every step is the
   corresponding [scores_fv] step, so the row carries the same bits.
   BORROWED like the scores rows. *)
let priored_posterior_fv ~priors t s x =
  let ll = log_likelihoods_fv t s x in
  let k = Array.length ll in
  if Array.length priors <> k then invalid_arg "Template.priored_posterior_fv: prior length mismatch";
  Array.iteri (fun i pi -> ll.(i) <- ll.(i) +. log (Float.max pi 1e-300)) priors;
  let zp = lse_with_max ll (max_fold ll) in
  for i = 0 to k - 1 do
    s.post_p.(i) <- exp (ll.(i) -. zp)
  done;
  s.post_p
