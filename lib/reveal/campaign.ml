(* Thin composition of the staged pipeline: every campaign is a
   Pipeline.source pulled through a batching driver that fans the
   acquire/segment/classify/grade work out to worker domains and folds
   the per-trace results into one tally.  The stages themselves live
   in Profiling, Profile_store, Grading and Source; this module only
   re-exports their types under the historical names and wires them
   together. *)

type profile = Pipeline.profile = {
  attack : Sca.Attack.t;
  window_length : int;
  segment : Sca.Segment.config;
  values : int array;
  sigma : float;
  sign_fit_floor : float;
  value_fit_floor : float;
}

type grade = Grading.grade = Confident | Tentative | SignOnly | Unknown
type recovery = Grading.recovery = Clean | Retried of int | Unrecoverable

type coefficient_result = Grading.coefficient_result = {
  actual : int;
  verdict : Sca.Attack.verdict;
  posterior_all : (int * float) array;
  grade : grade;
  recovery : recovery;
}

type gate = Grading.gate = {
  confident_threshold : float;
  tentative_threshold : float;
  sign_only_threshold : float;
  retry_budget : int;
}

let default_gate = Grading.default_gate
let grade_counts = Grading.grade_counts
let confident_mismatches = Grading.confident_mismatches
let hint_of_result = Grading.hint_of_result

(* --- profiling ------------------------------------------------------------ *)

let profile = Profiling.profile
let profiling_windows = Profiling.profiling_windows
let record_profiling = Profiling.record_profiling
let profiling_windows_of_archive path = Profiling.profiling_windows_of_archive path
let profile_of_archive path = Profiling.profile_of_archive path
let save_profile = Profile_store.save
let load_profile = Profile_store.load

(* --- per-trace attacks ---------------------------------------------------- *)

(* A run carries [float array] samples: one [of_array] at this edge. *)
let attack_trace prof (run : Device.run) =
  Grading.attack_resilient prof ~samples:(Mathkit.Fvec.of_array run.Device.trace.Power.Ptrace.samples)
    ~noises:run.Device.noises

(* --- aggregate statistics ------------------------------------------------- *)

type stats = {
  confusion : Sca.Confusion.t;
  sign_correct : int;
  sign_total : int;
  value_correct : int;
  value_total : int;
  skipped_out_of_range : int;
  corrupt_skipped : int;
}

(* Shared aggregate accumulator for every campaign driver. *)
type tally = {
  t_confusion : Sca.Confusion.t;
  t_in_range : (int, unit) Hashtbl.t;
  mutable t_sign_correct : int;
  mutable t_sign_total : int;
  mutable t_value_correct : int;
  mutable t_value_total : int;
  mutable t_skipped : int;
  mutable t_all : coefficient_result list;  (* reversed *)
}

let tally_create prof =
  let in_range = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace in_range v ()) prof.values;
  {
    t_confusion = Sca.Confusion.create ~labels:prof.values;
    t_in_range = in_range;
    t_sign_correct = 0;
    t_sign_total = 0;
    t_value_correct = 0;
    t_value_total = 0;
    t_skipped = 0;
    t_all = [];
  }

let tally_add t results =
  Array.iter
    (fun r ->
      t.t_all <- r :: t.t_all;
      t.t_sign_total <- t.t_sign_total + 1;
      if compare r.actual 0 = r.verdict.Sca.Attack.sign then t.t_sign_correct <- t.t_sign_correct + 1;
      if Hashtbl.mem t.t_in_range r.actual then begin
        t.t_value_total <- t.t_value_total + 1;
        Sca.Confusion.add t.t_confusion ~actual:r.actual ~predicted:r.verdict.Sca.Attack.value;
        if r.actual = r.verdict.Sca.Attack.value then t.t_value_correct <- t.t_value_correct + 1
      end
      else t.t_skipped <- t.t_skipped + 1)
    results

let tally_finish ?(corrupt_skipped = 0) t =
  ( {
      confusion = t.t_confusion;
      sign_correct = t.t_sign_correct;
      sign_total = t.t_sign_total;
      value_correct = t.t_value_correct;
      value_total = t.t_value_total;
      skipped_out_of_range = t.t_skipped;
      corrupt_skipped;
    },
    Array.of_list (List.rev t.t_all) )

(* The tally is a fold over results in item order with commutative
   counters, so the aggregates are a pure function of the result array
   (plus the corrupt count).  This is the deterministic-merge half of
   the distributed fabric: concatenate per-shard result slices in
   trace order, re-tally, and the stats match the single-process run
   bit for bit. *)
let stats_of_results ?(corrupt_skipped = 0) prof results =
  let t = tally_create prof in
  tally_add t results;
  fst (tally_finish ~corrupt_skipped t)

(* --- the driver ----------------------------------------------------------- *)

(* Final campaign aggregates exported as gauges, so an obs trace is a
   complete run record on its own: the summarize path reads these
   without re-running the tally. *)
let export_stats obs stats results =
  let m = Obs.Ctx.metrics obs in
  let set name v = Obs.Metrics.set (Obs.Metrics.gauge m name) (float_of_int v) in
  let confident, tentative, sign_only, unknown = Grading.grade_counts results in
  set "result.grade_confident" confident;
  set "result.grade_tentative" tentative;
  set "result.grade_sign_only" sign_only;
  set "result.grade_unknown" unknown;
  set "result.sign_correct" stats.sign_correct;
  set "result.sign_total" stats.sign_total;
  set "result.value_correct" stats.value_correct;
  set "result.value_total" stats.value_total;
  set "result.skipped_out_of_range" stats.skipped_out_of_range;
  set "result.corrupt_skipped" stats.corrupt_skipped

(* Pull up to [batch] items, attack them in parallel, tally in item
   order.  A record a tolerant source drops — at the pull ([`Skip]) or
   on the worker that checks it ([Pipeline.Dropped]) — counts toward
   the batch budget and the corrupt counter, exactly as the record it
   replaced would have.  Each item is acquired and graded by one call
   on one worker domain, so its borrowed samples ([Pipeline.acquired])
   are read before that domain acquires again.  A pull that raises
   (structural damage to an archive) ends the batch: the items pulled
   before it are attacked first, so a damaged record before it raises
   first, and the pull's exception follows.

   With an enabled obs context each item counts [source.items] or
   [source.skips] (a skip also emits a warn-level [source.skip] event),
   each item's [acquire] runs inside a [stage.acquire] span on the
   worker domain that forces it, where the acquisition cost is paid,
   and every batch ends with a [Constants.heartbeat_event] event
   carrying the coefficients graded so far (and, when [expected] names
   the campaign size, the total) — the progress frames a live monitor
   consumes.  Emission goes through the
   ctx sink like every other record, so a streaming tee carries it
   without touching the hot path: the batch has already been tallied
   when the heartbeat fires. *)
let run_source ?(obs = Obs.Ctx.disabled) ?expected ?domains ?(batch = Constants.default_batch)
    ?(gate = Grading.default_gate) prof source =
  if batch <= 0 then invalid_arg "Campaign.run_source: batch must be positive";
  let tally = tally_create prof in
  let corrupt = ref 0 in
  let counter name = if Obs.Ctx.enabled obs then Some (Obs.Ctx.counter obs name) else None in
  let c_items = counter "source.items" and c_skips = counter "source.skips" in
  let c_batches = counter "campaign.batches" in
  let bump = function Some c -> Obs.Metrics.incr c | None -> () in
  let skip reason =
    incr corrupt;
    match c_skips with
    | None -> ()
    | Some c ->
        Obs.Metrics.incr c;
        Obs.Ctx.event ~level:Obs.Ctx.Warn ~attrs:[ ("reason", Obs.Json.String reason) ] obs "source.skip"
  in
  let heartbeat () =
    if Obs.Ctx.enabled obs then
      Obs.Ctx.event obs Constants.heartbeat_event
        ~attrs:
          (("done", Obs.Json.Int tally.t_sign_total)
          :: (match expected with Some total -> [ ("total", Obs.Json.Int total) ] | None -> []))
  in
  (* one item on its worker: the results, or the reason it was dropped *)
  let attack ctx (it : Pipeline.item) =
    let acquired =
      Obs.Ctx.span obs "stage.acquire" (fun () ->
          match it.Pipeline.acquire () with a -> Ok a | exception Pipeline.Dropped reason -> Error reason)
    in
    Result.map
      (fun a ->
        Grading.attack_resilient ~gate ~ctx ?retry:a.Pipeline.remeasure ~obs prof ~samples:a.Pipeline.samples
          ~noises:a.Pipeline.noises)
      acquired
  in
  Obs.Ctx.span obs "campaign.run" (fun () ->
      Fun.protect
        ~finally:(fun () -> Pipeline.close_source source)
        (fun () ->
          let finished = ref false and pending = ref None in
          while not !finished do
            let rec take acc k =
              if k = 0 then acc
              else
                match Pipeline.next_item source with
                | exception e when acc <> [] ->
                    pending := Some (e, Printexc.get_raw_backtrace ());
                    finished := true;
                    acc
                | `End ->
                    finished := true;
                    acc
                | `Skip reason ->
                    skip reason;
                    take acc (k - 1)
                | `Item it -> take (it :: acc) (k - 1)
            in
            let items = Array.of_list (List.rev (take [] batch)) in
            if Array.length items > 0 then begin
              bump c_batches;
              let per_item =
                Obs.Ctx.span obs "campaign.batch" (fun () ->
                    (* one classifier context per worker domain: templates
                       are shared, scratch is not *)
                    Mathkit.Parallel.map_array_with ?domains ~scratch:(fun () -> Grading.make_ctx prof) attack items)
              in
              Obs.Ctx.span obs "stage.tally" (fun () ->
                  Array.iter
                    (function
                      | Ok results ->
                          bump c_items;
                          tally_add tally results
                      | Error reason -> skip reason)
                    per_item);
              heartbeat ()
            end
          done;
          Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !pending));
  let stats, results = tally_finish ~corrupt_skipped:!corrupt tally in
  if Obs.Ctx.enabled obs then export_stats obs stats results;
  (stats, results)

(* --- campaign entry points ------------------------------------------------ *)

(* Live campaign: resilient segmentation, confidence gating, and a
   bounded re-measurement budget.  A coefficient graded Unknown is
   re-acquired — the same noise values forced through the sampler with
   honest timing and a fresh scope/fault realisation, as re-triggering
   the capture would.  The retry stream is carved from a separate
   generator, so retries never perturb the other traces' randomness. *)
let run_attacks_resilient ?obs ?domains prof device ~traces ~scope_rng ~sampler_rng =
  let source = Source.device_live device ~traces ~scope_rng ~sampler_rng in
  run_source ?obs ?domains ~batch:(max 1 traces) prof source

(* Re-attack a recorded campaign: records stream through in batches
   (one batch of frames in flight at a time), each record checked,
   decoded and classified on a Mathkit.Parallel worker.  By default a
   record whose frame fails its CRC is skipped and counted
   ([stats.corrupt_skipped]) and the replay continues at the next
   frame boundary; [~strict:true] restores fail-fast.  Replay has no device to re-measure on, so
   Unknown-graded coefficients come back [Unrecoverable]. *)
let attack_archive ?obs ?strict prof path = run_source ?obs prof (Source.archive_replay ?strict ?obs path)
