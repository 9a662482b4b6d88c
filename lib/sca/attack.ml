type t = {
  sign_template : Template.t;
  neg_template : Template.t;
  pos_template : Template.t;
  neg_priors : float array;
  pos_priors : float array;
  prior_of_sign : float array;
  pois_sign : int array;
  pois_neg : int array;
  pois_pos : int array;
  log_prior_of_sign : float array;
  neg_log_priors : float array;
  pos_log_priors : float array;
  neg_order : int array;
  pos_order : int array;
}

(* A group's class indices in ascending label order: with the zero
   class between the two groups, they lay out [g_posterior_all]. *)
let ascending (template : Template.t) =
  let order = Array.init (Array.length template.Template.labels) Fun.id in
  Array.stable_sort (fun i j -> Int.compare template.Template.labels.(i) template.Template.labels.(j)) order;
  order

let make ~sign_template ~neg_template ~pos_template ~neg_priors ~pos_priors ~prior_of_sign ~pois_sign ~pois_neg
    ~pois_pos =
  {
    sign_template;
    neg_template;
    pos_template;
    neg_priors;
    pos_priors;
    prior_of_sign;
    pois_sign;
    pois_neg;
    pois_pos;
    log_prior_of_sign = Template.log_prior sign_template prior_of_sign;
    neg_log_priors = Template.log_prior neg_template neg_priors;
    pos_log_priors = Template.log_prior pos_template pos_priors;
    neg_order = ascending neg_template;
    pos_order = ascending pos_template;
  }

type verdict = {
  sign : int;
  value : int;
  posterior : (int * float) array;
}

let sign_of_label v = compare v 0

(* A sign group's value template: SOSD POIs over its classes, then
   the Gaussian template on them. *)
let group_fit ~poi_count classes () =
  let scores = Sosd.scores_t (Array.of_list (List.map snd classes)) in
  let pois = Sosd.select ~count:poi_count scores in
  let project rows = Array.map (fun w -> Sosd.pick w pois) rows in
  (Template.build ~pois (List.map (fun (label, rows) -> (label, project rows)) classes), pois)

(* The sign template: SOSD between the three pooled sign groups. *)
let sign_fit ~sign_poi_count classes () =
  let pooled s = List.filter (fun (label, _) -> sign_of_label label = s) classes |> List.map snd |> Array.concat in
  let sign_groups = [| pooled (-1); pooled 0; pooled 1 |] in
  let pois = Sosd.select ~count:sign_poi_count (Sosd.scores_t sign_groups) in
  let project rows = Array.map (fun w -> Sosd.pick w pois) rows in
  ( Template.build ~pois
      (List.filter_map
         (fun s ->
           let rows = sign_groups.(s + 1) in
           if Array.length rows < 2 then None else Some (s, project rows))
         [ -1; 0; 1 ]),
    pois )

let value_priors ~sigma (template : Template.t) =
  Array.map (fun label -> Mathkit.Gaussian.discrete_probability ~sigma label) template.Template.labels
  |> Mathkit.Stats.normalize_probs

(* The three templates are independent fits, one per item of a
   parallel map.  The sign fit, the longest (it reads every window),
   sits between the two group fits, so on two domains it runs beside
   them; the groups' sizes are checked first, negative then positive,
   so no sign-fit failure can come before theirs. *)
let build ?domains ~poi_count ~sign_poi_count ~sigma classes =
  (match classes with [] -> invalid_arg "Attack.build: no profiling classes" | _ -> ());
  let group s =
    match List.filter (fun (label, _) -> sign_of_label label = s) classes with
    | ([] | [ _ ]) -> invalid_arg "Attack.build: a sign group needs at least two candidate values"
    | g -> g
  in
  let neg = group (-1) in
  let pos = group 1 in
  let fitted =
    Mathkit.Parallel.map_array ?domains
      (fun fit -> fit ())
      [| group_fit ~poi_count neg; sign_fit ~sign_poi_count classes; group_fit ~poi_count pos |]
  in
  let neg_template, pois_neg = fitted.(0) and sign_template, pois_sign = fitted.(1) in
  let pos_template, pois_pos = fitted.(2) in
  let prior_of_sign =
    let mass s =
      List.fold_left
        (fun acc (label, _) -> if sign_of_label label = s then acc +. Mathkit.Gaussian.discrete_probability ~sigma label else acc)
        0.0 classes
    in
    Mathkit.Stats.normalize_probs [| mass (-1); mass 0; mass 1 |]
  in
  make ~sign_template ~neg_template ~pos_template ~neg_priors:(value_priors ~sigma neg_template)
    ~pos_priors:(value_priors ~sigma pos_template) ~prior_of_sign ~pois_sign ~pois_neg ~pois_pos

type graded = {
  g_verdict : verdict;
  g_posterior_all : (int * float) array;
  g_sign_confidence : float;
  g_sign_fit : float;
  g_value_fit : float;
}

(* ------------------------------------------------------------------ *)
(* Fvec scoring: one scratch per domain, zero allocation per window.  *)
(* ------------------------------------------------------------------ *)

module Scratch = struct
  type t = {
    gather : Mathkit.Fvec.t;  (* POI gather buffer, max over the three sets *)
    sign : Template.scratch;
    neg : Template.scratch;
    pos : Template.scratch;
  }
end

let make_scratch t =
  let np = max (Array.length t.pois_sign) (max (Array.length t.pois_neg) (Array.length t.pois_pos)) in
  {
    Scratch.gather = Mathkit.Fvec.create np;
    sign = Template.make_scratch t.sign_template;
    neg = Template.make_scratch t.neg_template;
    pos = Template.make_scratch t.pos_template;
  }

(* Gather the POI samples into a prefix view of the scratch buffer.
   The view is consumed before the next pick, so one buffer serves all
   three POI sets. *)
let pick_into (s : Scratch.t) pois window =
  let out = Mathkit.Fvec.sub s.Scratch.gather 0 (Array.length pois) in
  Sosd.pick_fv window pois ~out;
  out

(* Posteriors normalise away the absolute likelihood, so a corrupted
   window still yields a (meaninglessly) sharp posterior.  The absolute
   best-class log density is the out-of-distribution signal: honest
   windows score within a calibrated band, faulted ones fall off a
   cliff (the Mahalanobis term is quadratic in the deviation). *)
let best_log_likelihood_fv template scratch vec =
  Array.fold_left Float.max neg_infinity (Template.log_likelihoods_fv template scratch vec)

let sign_fit_fv t s window =
  best_log_likelihood_fv t.sign_template s.Scratch.sign (pick_into s t.pois_sign window)

let value_fit_fv t s ~sign window =
  match sign with
  | -1 -> best_log_likelihood_fv t.neg_template s.Scratch.neg (pick_into s t.pois_neg window)
  | 1 -> best_log_likelihood_fv t.pos_template s.Scratch.pos (pick_into s t.pois_pos window)
  | _ -> sign_fit_fv t s window

(* The grading pass: everything the confidence gate consumes per
   window, from ONE scoring of each template.  [Template.scores_fv]
   computes each template's rows once and this function derives the
   five grading quantities from them; the fits carry the bits
   [sign_fit_fv]/[value_fit_fv] return (test_sca pins every field
   against a boxed reference implementation).

   The verdict is pure maximum likelihood, as in classical template
   attacks (and as the paper's Table I/II scores behave): the class
   prior is NOT mixed in — with single-trace likelihood margins of a
   few nats, a Gaussian prior would drag every rare value onto its
   frequent neighbours.  The joint posterior, by contrast, is
   Bayesian: the adversary knows the sampler's distribution, so
   P(v | trace) uses the Gaussian prior both across sign groups and
   within them. *)
let grade_fv t s window =
  let sign_sc = Template.scores_fv ~log_prior:t.log_prior_of_sign t.sign_template s.Scratch.sign (pick_into s t.pois_sign window) in
  let sign_labels = t.sign_template.Template.labels in
  let sign = sign_labels.(Mathkit.Stats.argmax sign_sc.Template.s_post) in
  let g_sign_confidence = Array.fold_left Float.max 0.0 sign_sc.Template.s_post in
  let g_sign_fit = sign_sc.Template.s_best_ll in
  (* Both value groups always feed the joint posterior — but only the
     recovered sign's template has its
     flat posterior (verdict) and best density (fit floor) read.  The
     other group — both groups, under a zero sign — contributes its
     priored row alone, so the rows no consumer reads are simply not
     computed; every row that is carries full-[scores_fv] bits. *)
  let verdict_of template (sc : Template.scores) =
    let labels = template.Template.labels in
    let best = Mathkit.Stats.argmax sc.Template.s_post in
    { sign; value = labels.(best); posterior = Array.mapi (fun i l -> (l, sc.Template.s_post.(i))) labels }
  in
  let g_verdict, g_value_fit, neg_pp, pos_pp =
    match sign with
    | -1 ->
        let neg_sc = Template.scores_fv ~log_prior:t.neg_log_priors t.neg_template s.Scratch.neg (pick_into s t.pois_neg window) in
        let pos_pp = Template.priored_posterior_fv ~log_prior:t.pos_log_priors t.pos_template s.Scratch.pos (pick_into s t.pois_pos window) in
        (verdict_of t.neg_template neg_sc, neg_sc.Template.s_best_ll, neg_sc.Template.s_post_p, pos_pp)
    | 1 ->
        let neg_pp = Template.priored_posterior_fv ~log_prior:t.neg_log_priors t.neg_template s.Scratch.neg (pick_into s t.pois_neg window) in
        let pos_sc = Template.scores_fv ~log_prior:t.pos_log_priors t.pos_template s.Scratch.pos (pick_into s t.pois_pos window) in
        (verdict_of t.pos_template pos_sc, pos_sc.Template.s_best_ll, neg_pp, pos_sc.Template.s_post_p)
    | _ ->
        let neg_pp = Template.priored_posterior_fv ~log_prior:t.neg_log_priors t.neg_template s.Scratch.neg (pick_into s t.pois_neg window) in
        let pos_pp = Template.priored_posterior_fv ~log_prior:t.pos_log_priors t.pos_template s.Scratch.pos (pick_into s t.pois_pos window) in
        ({ sign; value = 0; posterior = [| (0, 1.0) |] }, g_sign_fit, neg_pp, pos_pp)
  in
  let p_of_sign sg =
    let acc = ref 0.0 in
    Array.iteri (fun i l -> if l = sg then acc := sign_sc.Template.s_post_p.(i)) sign_labels;
    !acc
  in
  (* Ascending labels: the negative group, zero, then the positive
     group, each entry written where the sorted layout puts it. *)
  let ps_neg = p_of_sign (-1) and ps_pos = p_of_sign 1 in
  let neg_labels = t.neg_template.Template.labels and pos_labels = t.pos_template.Template.labels in
  let nn = Array.length t.neg_order in
  let g_posterior_all =
    Array.init
      (nn + 1 + Array.length t.pos_order)
      (fun j ->
        if j < nn then
          let i = t.neg_order.(j) in
          (neg_labels.(i), ps_neg *. neg_pp.(i))
        else if j = nn then (0, p_of_sign 0)
        else
          let i = t.pos_order.(j - nn - 1) in
          (pos_labels.(i), ps_pos *. pos_pp.(i)))
  in
  { g_verdict; g_posterior_all; g_sign_confidence; g_sign_fit; g_value_fit }
