type grade = Confident | Tentative | SignOnly | Unknown
type recovery = Clean | Retried of int | Unrecoverable

type coefficient_result = {
  actual : int;
  verdict : Sca.Attack.verdict;
  posterior_all : (int * float) array;
  grade : grade;
  recovery : recovery;
}

type gate = {
  confident_threshold : float;
  tentative_threshold : float;
  sign_only_threshold : float;
  retry_budget : int;
}

let default_gate =
  {
    confident_threshold = Constants.gate_confident_threshold;
    tentative_threshold = Constants.gate_tentative_threshold;
    sign_only_threshold = Constants.gate_sign_only_threshold;
    retry_budget = Constants.gate_retry_budget;
  }

(* --- instrumentation ------------------------------------------------------- *)

(* Per-trace observability handles, resolved once per attack call (the
   registry lookup locks) and then bumped per window.  [None] on the
   uninstrumented path keeps the hot loop to one match. *)
type instruments = {
  c_quality_clean : Obs.Metrics.counter;
  c_quality_resynced : Obs.Metrics.counter;
  c_quality_suspect : Obs.Metrics.counter;
  c_confident : Obs.Metrics.counter;
  c_tentative : Obs.Metrics.counter;
  c_sign_only : Obs.Metrics.counter;
  c_unknown : Obs.Metrics.counter;
  h_sign_fit : Obs.Metrics.histogram;
  h_value_fit : Obs.Metrics.histogram;
  h_confidence : Obs.Metrics.histogram;
  c_retry_attempts : Obs.Metrics.counter;
  c_retry_rescued : Obs.Metrics.counter;
  h_retry_depth : Obs.Metrics.histogram;
}

(* fit scores are best-class log densities: near zero for in-band
   windows, falling off a quadratic cliff when faulted *)
let fit_buckets = [| -1e4; -3e3; -1e3; -300.; -100.; -30.; -10.; 0.; 10.; 100. |]
let confidence_buckets = [| 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 |]
let retry_depth_buckets = [| 1.; 2.; 3.; 4.; 5. |]

let instruments obs =
  if not (Obs.Ctx.enabled obs) then None
  else
    Some
      {
        c_quality_clean = Obs.Ctx.counter obs "segment.windows_clean";
        c_quality_resynced = Obs.Ctx.counter obs "segment.windows_resynced";
        c_quality_suspect = Obs.Ctx.counter obs "segment.windows_suspect";
        c_confident = Obs.Ctx.counter obs "grade.confident";
        c_tentative = Obs.Ctx.counter obs "grade.tentative";
        c_sign_only = Obs.Ctx.counter obs "grade.sign_only";
        c_unknown = Obs.Ctx.counter obs "grade.unknown";
        h_sign_fit = Obs.Ctx.histogram ~buckets:fit_buckets obs "classifier.sign_fit";
        h_value_fit = Obs.Ctx.histogram ~buckets:fit_buckets obs "classifier.value_fit";
        h_confidence = Obs.Ctx.histogram ~buckets:confidence_buckets obs "classifier.confidence";
        c_retry_attempts = Obs.Ctx.counter obs "retry.attempts";
        c_retry_rescued = Obs.Ctx.counter obs "retry.rescued";
        h_retry_depth = Obs.Ctx.histogram ~buckets:retry_depth_buckets obs "retry.depth";
      }

let count_quality insts quality =
  match insts with
  | None -> ()
  | Some i ->
      Obs.Metrics.incr
        (match quality with
        | Sca.Segment.Clean -> i.c_quality_clean
        | Sca.Segment.Resynced -> i.c_quality_resynced
        | Sca.Segment.Suspect -> i.c_quality_suspect)

let count_grade insts grade =
  match insts with
  | None -> ()
  | Some i ->
      Obs.Metrics.incr
        (match grade with
        | Confident -> i.c_confident
        | Tentative -> i.c_tentative
        | SignOnly -> i.c_sign_only
        | Unknown -> i.c_unknown)

(* --- classifier context ---------------------------------------------------- *)

(* A classifier packed together with its scratch state.  The scratch
   existential is hidden here rather than in [Pipeline.classifier] so
   the stage contract stays a pure value; the grader, which owns the
   hot loop, resolves a context once per trace (or once per worker
   domain) and threads it through every window. *)
type ctx = Ctx : (module Sca.Classifier.S with type t = 'c and type scratch = 's) * 'c * 's -> ctx

let make_ctx ?classifier prof =
  let (Pipeline.Classifier ((module C), cls)) =
    match classifier with Some c -> c | None -> Pipeline.classifier_of_profile prof
  in
  Ctx ((module C), cls, C.make_scratch cls)

(* Grading is goodness-of-fit first, posterior confidence second.  A
   posterior normalises the absolute likelihood away, so a corrupted
   window often looks MORE confident than an honest one (one garbage
   class is merely the least garbage).  The absolute best-class log
   density has no such failure mode: honest attack windows land in the
   band the profiling windows calibrated, faulted ones fall off a
   quadratic cliff.  Only windows that fit are allowed to carry value
   information; only then does the joint confidence (sign-match peak
   times value-posterior peak, both flat-prior) pick the rung. *)
let classify_graded_i ~ctx ~insts prof gate ~quality window =
  let (Ctx ((module C), cls, scratch)) = ctx in
  (* One scoring pass: [grade] returns every quantity the gate
     consumes. *)
  let g = C.grade cls scratch window in
  let sign_conf = g.Sca.Attack.g_sign_confidence in
  let verdict = g.Sca.Attack.g_verdict in
  let posterior_all = g.Sca.Attack.g_posterior_all in
  (* Peak of the joint Bayesian posterior.  Crucially, a point-mass
     posterior (the one that would become a perfect hint) always scores
     1.0 here, so on a clean window it always clears the Confident
     threshold — the Tentative perfect-hint demotion provably cannot
     change a clean-trace hint. *)
  let conf = Array.fold_left (fun acc (_, p) -> Float.max acc p) 0.0 posterior_all in
  let sign_fit = g.Sca.Attack.g_sign_fit in
  let grade =
    if sign_fit < prof.Pipeline.sign_fit_floor then
      (* not even the branch region looks like any class: the window is
         noise and nothing in it can be trusted *)
      Unknown
    else begin
      let value_fit = g.Sca.Attack.g_value_fit in
      (match insts with Some i -> Obs.Metrics.observe i.h_value_fit value_fit | None -> ());
      if value_fit < prof.Pipeline.value_fit_floor then
        if sign_conf >= gate.sign_only_threshold then SignOnly else Unknown
      else if conf >= gate.confident_threshold && quality <> Sca.Segment.Resynced then
        (* a window that segmentation had to repair can never be Confident:
           a confidently-wrong verdict would enter the lattice as a perfect
           hint and poison the whole estimate.  Suspect (a length outlier)
           does not bar Confident: burst length varies legitimately with
           the coefficient value, so rare large-magnitude values trip the
           MAD check on perfectly clean traces — corruption is what the
           fit floors detect. *)
        Confident
      else if conf >= gate.tentative_threshold then Tentative
      else if sign_conf >= gate.sign_only_threshold then SignOnly
      else Unknown
    end
  in
  (match insts with
  | None -> ()
  | Some i ->
      Obs.Metrics.observe i.h_sign_fit sign_fit;
      Obs.Metrics.observe i.h_confidence conf);
  count_quality insts quality;
  count_grade insts grade;
  (verdict, posterior_all, grade)

let classify_graded ?classifier prof gate ~quality window =
  classify_graded_i ~ctx:(make_ctx ?classifier prof) ~insts:None prof gate ~quality window

let grade_counts results =
  let c = ref 0 and t = ref 0 and s = ref 0 and u = ref 0 in
  Array.iter
    (fun r ->
      match r.grade with
      | Confident -> incr c
      | Tentative -> incr t
      | SignOnly -> incr s
      | Unknown -> incr u)
    results;
  (!c, !t, !s, !u)

(* Coefficients the gate vouched for whose recovered sign is wrong —
   the one outcome the grading ladder exists to prevent.  Sign, not
   value: the attack's clean-run guarantee is perfect sign recovery
   (Table IV), while exact values are only partially recoverable even
   on an honest device, so a confidently-wrong value is expected and a
   confidently-wrong sign never is.  The triage fuzzer's misgrade
   verdict is exactly this count being nonzero. *)
let confident_mismatches results =
  Array.fold_left
    (fun acc r ->
      if r.grade = Confident && r.verdict.Sca.Attack.sign <> compare r.actual 0 then acc + 1 else acc)
    0 results

let hint_of_result ~sigma ~coordinate r =
  match r.grade with
  | Confident -> Hints.Hint.of_posterior ~coordinate r.posterior_all
  | Tentative -> (
      (* keep the measured posterior, but never let a Tentative verdict
         harden into a perfect hint: a point-mass posterior on a window
         the gate would not call Confident (repaired segmentation, soft
         sign match) is exactly the confidently-wrong case *)
      let h = Hints.Hint.of_posterior ~coordinate r.posterior_all in
      match h.Hints.Hint.kind with
      | Hints.Hint.Perfect v ->
          {
            h with
            Hints.Hint.kind = Hints.Hint.Approximate { mean = float_of_int v; variance = 0.25; confidence = 1.0 };
          }
      | _ -> h)
  | SignOnly -> Hints.Hint.sign_hint ~sigma ~coordinate r.verdict.Sca.Attack.sign
  | Unknown -> { Hints.Hint.coordinate; kind = Hints.Hint.None_useful }

let null_verdict = { Sca.Attack.sign = 0; value = 0; posterior = [| (0, 1.0) |] }

(* --- fault-tolerant attack ------------------------------------------------- *)

(* Resilient segmentation of one trace: exactly count+1 windows (the
   firmware's trailing dummy included) or a typed error, with the
   per-window quality feeding the grade gate. *)
let graded_windows ~ctx ?(segmenter = Pipeline.resilient_segmenter) ~obs ~insts prof gate
    ~count samples =
  match
    Obs.Ctx.span obs "stage.segment" (fun () -> Pipeline.run_segmenter segmenter prof ~count samples)
  with
  | Error e -> Error e
  | Ok { Pipeline.vectors; quality } ->
      Ok
        (Obs.Ctx.span obs "stage.classify" (fun () ->
             Array.init count (fun i ->
                 classify_graded_i ~ctx ~insts prof gate ~quality:quality.(i) vectors.(i))))

let attack_resilient ?(gate = default_gate) ?ctx ?segmenter ?retry
    ?(obs = Obs.Ctx.disabled) prof ~samples ~noises =
  let insts = instruments obs in
  let ctx = match ctx with Some c -> c | None -> make_ctx prof in
  let count = Array.length noises in
  let results =
    Array.init count (fun i ->
        {
          actual = noises.(i);
          verdict = null_verdict;
          posterior_all = [| (0, 1.0) |];
          grade = Unknown;
          recovery = Unrecoverable;
        })
  in
  let pending = ref [] in
  (match graded_windows ~ctx ?segmenter ~obs ~insts prof gate ~count samples with
  | Ok graded ->
      Array.iteri
        (fun i (verdict, posterior_all, grade) ->
          results.(i) <-
            {
              actual = noises.(i);
              verdict;
              posterior_all;
              grade;
              recovery = (if grade = Unknown then Unrecoverable else Clean);
            };
          if grade = Unknown then pending := i :: !pending)
        graded
  | Error _ -> pending := List.init count Fun.id);
  (match retry with
  | Some remeasure ->
      let attempt = ref 1 in
      while !pending <> [] && !attempt <= gate.retry_budget do
        (match insts with
        | Some ins -> Obs.Metrics.incr ins.c_retry_attempts
        | None -> ());
        if Obs.Ctx.enabled obs then
          Obs.Ctx.event
            ~attrs:
              [ ("attempt", Obs.Json.Int !attempt); ("pending", Obs.Json.Int (List.length !pending)) ]
            obs "retry.attempt";
        (match graded_windows ~ctx ?segmenter ~obs ~insts prof gate ~count (remeasure !attempt) with
        | Ok graded ->
            pending :=
              List.filter
                (fun idx ->
                  let verdict, posterior_all, grade = graded.(idx) in
                  if grade = Unknown then true
                  else begin
                    results.(idx) <-
                      { actual = noises.(idx); verdict; posterior_all; grade; recovery = Retried !attempt };
                    (match insts with
                    | Some ins ->
                        Obs.Metrics.incr ins.c_retry_rescued;
                        Obs.Metrics.observe ins.h_retry_depth (float_of_int !attempt)
                    | None -> ());
                    false
                  end)
                !pending
        | Error _ -> ());
        incr attempt
      done
  | None -> ());
  results
