(* The (label, window) pairs of one run whose label is a candidate
   value, each copied once out of the vector segmentation read, at the
   run's shortest such window: the common length [finalize_bags] picks
   is the minimum over runs, so it never exceeds a run's copy.  Each
   of these windows lies between two bursts, which segmentation keeps
   at least [merge_gap] samples apart, so none is too short to use.
   The pairs come grouped by label, in trace order within a label,
   which is the order each bag takes them in: one class's copies then
   sit together in memory, where template fitting, which reads a
   class's windows in turn, runs faster than on copies made in trace
   order (DESIGN §16.2).  The firmware samples a trailing dummy
   coefficient, so a run over n coefficients must segment into exactly
   n+1 windows; the dummy's is dropped.  [fail] turns a message into
   the caller's exception; [what] names the run or record. *)
let labelled_windows ~fail ~what ~values segment ~samples ~noises =
  let count = Array.length noises in
  let wins = Sca.Segment.windows_fv segment samples in
  if Array.length wins <> count + 1 then
    raise (fail (Printf.sprintf "%s: segmentation found %d windows for %d coefficients" what (Array.length wins) count));
  let kept =
    List.init count Fun.id
    |> List.filter (fun i -> Array.exists (Int.equal noises.(i)) values)
    |> List.stable_sort (fun i j -> Int.compare noises.(i) noises.(j))
  in
  let len =
    List.fold_left (fun acc i -> min acc (wins.(i).Sca.Segment.stop - wins.(i).Sca.Segment.start)) max_int kept
  in
  Array.of_list
    (List.map
       (fun i -> (noises.(i), Mathkit.Fvec.to_array (Mathkit.Fvec.sub samples wins.(i).Sca.Segment.start len)))
       kept)

(* Calibrate an absolute burst threshold once so that profiling and
   attack traces segment identically. *)
let calibrate_threshold device rng =
  let samples, _ = Device.acquire device ~scope_rng:rng ~draws:(Device.gaussian_draws device rng) in
  Sca.Segment.auto_threshold_fv Sca.Segment.default samples

let segment_of_threshold threshold =
  { Sca.Segment.default with Sca.Segment.threshold = Sca.Segment.Absolute threshold }

let profiling_shape ~values ~per_value device =
  if per_value < 2 then invalid_arg "Campaign.profile: need at least 2 traces per value";
  let n = Device.n device in
  let value_count = Array.length values in
  if n < 2 * value_count then invalid_arg "Campaign.profile: device too small to profile every value per run";
  let copies = n / value_count in
  let runs = (per_value + copies - 1) / copies in
  (copies, runs)

(* One profiling run forces every candidate value into several
   shuffled positions of one honest-length sampling, so templates see
   the value at arbitrary indices with arbitrary neighbours — exactly
   the conditions of the attacked trace.  Runs carry their own seeds,
   so neither the domain count nor record/replay can change the
   results. *)
let profiling_draws device ~values ~copies rng =
  let n = Device.n device in
  let forced = Array.concat (List.init copies (fun _ -> Array.copy values)) in
  let honest, _ =
    Riscv.Sampler_prog.draws_of_gaussian rng Mathkit.Gaussian.seal_default ~count:(n - Array.length forced)
  in
  let draws = Array.append (Array.map (fun v -> Device.profiling_draw device rng ~value:v) forced) honest in
  Mathkit.Prng.shuffle rng draws;
  draws

let profiling_run device ~values ~copies seed =
  let rng = Mathkit.Prng.create ~seed () in
  Device.run device ~scope_rng:rng ~draws:(profiling_draws device ~values ~copies rng)

(* Per-value window bags, filled incrementally so the archive path can
   stream chunk by chunk. *)
let make_bags values =
  let bags = Hashtbl.create (Array.length values) in
  Array.iter (fun v -> Hashtbl.replace bags v []) values;
  bags

let add_labelled bags labelled = Array.iter (fun (v, w) -> Hashtbl.replace bags v (w :: Hashtbl.find bags v)) labelled

(* Every run's copies are at least as long as the common length, the
   shortest window observed; most already have it and are kept, the
   others are cut to it. *)
let finalize_bags ~fail values bags =
  (* Walk the bags in the caller's value order, not hash order, so the
     class layout is reproducible run to run. *)
  let bag v = Hashtbl.find bags v in
  if Array.for_all (fun v -> List.is_empty (bag v)) values then raise (fail "no profiling windows collected");
  let window_length =
    Array.fold_left (fun acc v -> List.fold_left (fun acc w -> min acc (Array.length w)) acc (bag v)) max_int values
  in
  let common w = if Array.length w = window_length then w else Array.sub w 0 window_length in
  (window_length, Array.to_list values |> List.map (fun v -> (v, Array.of_list (List.map common (bag v)))))

let profiling_windows ?(per_value = Constants.default_per_value) ?domains ?(obs = Obs.Ctx.disabled) device rng =
  let values = Constants.default_values in
  let copies, runs = profiling_shape ~values ~per_value device in
  let threshold = Obs.Ctx.span obs "profiling.calibrate" (fun () -> calibrate_threshold device rng) in
  let segment = segment_of_threshold threshold in
  let seeds = Array.init runs (fun _ -> Mathkit.Prng.bits64 rng) in
  let fail msg = Invalid_argument ("Campaign.profile: " ^ msg) in
  (* [profiling_run] into the domain's buffers; the windows are copied
     out before the domain acquires again *)
  let one_run i =
    let rng = Mathkit.Prng.create ~seed:seeds.(i) () in
    let samples, noises = Device.acquire device ~scope_rng:rng ~draws:(profiling_draws device ~values ~copies rng) in
    labelled_windows ~fail ~what:(Printf.sprintf "run %d" i) ~values segment ~samples ~noises
  in
  let per_run =
    Obs.Ctx.span obs "profiling.acquire" (fun () -> Mathkit.Parallel.map_array ?domains one_run (Array.init runs Fun.id))
  in
  let bags = make_bags values in
  Array.iter (add_labelled bags) per_run;
  let window_length, classes = finalize_bags ~fail values bags in
  if Obs.Ctx.enabled obs then begin
    Obs.Metrics.incr ~by:runs (Obs.Ctx.counter obs "profiling.runs");
    Obs.Metrics.incr
      ~by:(List.fold_left (fun acc (_, rows) -> acc + Array.length rows) 0 classes)
      (Obs.Ctx.counter obs "profiling.windows");
    Obs.Metrics.set (Obs.Ctx.gauge obs "profiling.window_length") (float_of_int window_length)
  end;
  (segment, window_length, classes)

(* Floor below the profiling population: mirror the lower half of the
   distribution below its minimum and leave 30 nats of slack.  Honest
   attack windows (same distribution) essentially never fall under it;
   faulted windows overshoot it by orders of magnitude because the
   Gaussian exponent is quadratic in the corruption. *)
let fit_floor fits =
  let mn = Array.fold_left Float.min infinity fits in
  let p50 = Mathkit.Stats.percentile fits 50.0 in
  mn -. (p50 -. mn) -. 30.0

let profile_of_windows ?domains ~poi_count ~sign_poi_count (segment, window_length, classes) =
  let values = Array.of_list (List.map fst classes) in
  let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
  let attack = Sca.Attack.build ?domains ~poi_count ~sign_poi_count ~sigma classes in
  (* Calibrate the goodness-of-fit floors on the profiling windows
     themselves — the reference for "what an honest window looks like".
     Each class is swept on one domain, with one scratch and one window
     buffer per domain.  A floor is a minimum and a selected median of
     its fits, so the order the classes' fits are gathered in does not
     reach it. *)
  let class_fits =
    Mathkit.Parallel.map_array_with ?domains
      ~scratch:(fun () -> (Sca.Attack.make_scratch attack, Mathkit.Fvec.create window_length))
      (fun (scratch, wv) (label, rows) ->
        let sign = Sca.Attack.sign_of_label label in
        let sign_fits = Array.make (Array.length rows) 0.0 in
        let value_fits = Array.make (if sign <> 0 then Array.length rows else 0) 0.0 in
        Array.iteri
          (fun i w ->
            Mathkit.Fvec.blit_from_array w wv;
            sign_fits.(i) <- Sca.Attack.sign_fit_fv attack scratch wv;
            if sign <> 0 then value_fits.(i) <- Sca.Attack.value_fit_fv attack scratch ~sign wv)
          rows;
        (sign_fits, value_fits))
      (Array.of_list classes)
  in
  let floor pick = fit_floor (Array.concat (Array.to_list (Array.map pick class_fits))) in
  let sign_fit_floor = floor fst and value_fit_floor = floor snd in
  { Pipeline.attack; window_length; segment; values; sigma; sign_fit_floor; value_fit_floor }

(* Fit templates inside a [profiling.build] span and export the
   calibrated floors as gauges. *)
let profile ?per_value ?domains ?(obs = Obs.Ctx.disabled) ?(poi_count = Constants.default_poi_count) device rng =
  let windows = profiling_windows ?per_value ?domains ~obs device rng in
  let prof =
    Obs.Ctx.span obs "profiling.build" (fun () ->
        profile_of_windows ?domains ~poi_count ~sign_poi_count:Constants.default_sign_poi_count windows)
  in
  if Obs.Ctx.enabled obs then begin
    Obs.Metrics.set (Obs.Ctx.gauge obs "profiling.sign_fit_floor") prof.Pipeline.sign_fit_floor;
    Obs.Metrics.set (Obs.Ctx.gauge obs "profiling.value_fit_floor") prof.Pipeline.value_fit_floor
  end;
  prof

(* --- profiling campaigns on disk ----------------------------------------- *)

let record_profiling ?(per_value = Constants.default_per_value) ?(seed = 0L) device rng ~path =
  let values = Constants.default_values in
  let copies, runs = profiling_shape ~values ~per_value device in
  let threshold = calibrate_threshold device rng in
  let seeds = Array.init runs (fun _ -> Mathkit.Prng.bits64 rng) in
  let meta =
    [
      (Constants.meta_kind_key, "profiling");
      (Constants.meta_threshold_key, Printf.sprintf "%Lx" (Int64.bits_of_float threshold));
      (Constants.meta_values_key, String.concat "," (List.map string_of_int (Array.to_list values)));
      (Constants.meta_per_value_key, string_of_int per_value);
    ]
  in
  let writer = Device.open_recorder ~meta device ~path ~seed in
  Fun.protect
    ~finally:(fun () -> Traceio.Archive.close_writer writer)
    (fun () -> Array.iter (fun seed -> Device.record_run writer (profiling_run device ~values ~copies seed)) seeds)

let profiling_meta_of_header ~path (h : Traceio.Archive.header) =
  let require key =
    match Traceio.Archive.meta_find h key with
    | Some v -> v
    | None ->
        Traceio.Error.corruptf "%s: not a profiling archive (missing %S metadata) — record it with record_profiling"
          path key
  in
  let threshold =
    let s = require Constants.meta_threshold_key in
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Int64.float_of_bits bits
    | None -> Traceio.Error.corruptf "%s: unreadable calibration threshold %S" path s
  in
  let values =
    let s = require Constants.meta_values_key in
    let parts = String.split_on_char ',' s in
    match
      List.map int_of_string_opt parts
      |> List.fold_left (fun acc v -> match (acc, v) with Some l, Some x -> Some (x :: l) | _ -> None) (Some [])
    with
    | Some l -> Array.of_list (List.rev l)
    | None -> Traceio.Error.corruptf "%s: unreadable candidate-value list %S" path s
  in
  if Array.length values = 0 then Traceio.Error.corruptf "%s: empty candidate-value list" path;
  (threshold, values)

(* Archive profiling is a strict replay pulled through the campaign's
   batch loop: one batch of records in flight, each checked, decoded
   into its domain's samples slot and segmented by its worker.  A
   strict stream numbers items in record order and yields no [`Skip];
   a damaged record raises from its [acquire], the first in archive
   order first. *)
let profiling_windows_of_archive ?domains path =
  let threshold, values =
    Traceio.Archive.with_reader path (fun r -> profiling_meta_of_header ~path (Traceio.Archive.header r))
  in
  let segment = segment_of_threshold threshold in
  let bags = make_bags values in
  let fail msg = Traceio.Error.Corrupt (path ^ ": " ^ msg) in
  let windows (it : Pipeline.item) =
    let a = it.Pipeline.acquire () in
    labelled_windows ~fail
      ~what:(Printf.sprintf "record %d" it.Pipeline.index)
      ~values segment ~samples:a.Pipeline.samples ~noises:a.Pipeline.noises
  in
  Pipeline.iter_batches ~batch:Constants.default_batch
    ~skip:(fun reason -> raise (Traceio.Error.Corrupt reason))
    (Source.archive_replay ~strict:true path)
    (fun items -> Array.iter (add_labelled bags) (Mathkit.Parallel.map_array ?domains windows items));
  let window_length, classes = finalize_bags ~fail values bags in
  (segment, window_length, classes)

let profile_of_archive path =
  profile_of_windows ~poi_count:Constants.default_poi_count ~sign_poi_count:Constants.default_sign_poi_count
    (profiling_windows_of_archive path)
