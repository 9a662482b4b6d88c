(* (label, full window) pairs of one run — the per-chunk unit both the
   in-memory and the archive-streamed profiling paths produce, each
   window copied out of the vector segmentation read.  The firmware
   samples a trailing dummy coefficient, so a run over n coefficients
   must segment into exactly n+1 windows; the dummy's is dropped. *)
let labelled_windows segment ~samples ~noises =
  let count = Array.length noises in
  let wins = Sca.Segment.windows_fv segment samples in
  if Array.length wins <> count + 1 then
    failwith
      (Printf.sprintf "Campaign: segmentation found %d windows for %d coefficients" (Array.length wins) count);
  Array.init count (fun i ->
      let w = wins.(i) in
      let len = w.Sca.Segment.stop - w.Sca.Segment.start in
      (noises.(i), Mathkit.Fvec.to_array (Mathkit.Fvec.sub samples w.Sca.Segment.start len)))

(* Calibrate an absolute burst threshold once so that profiling and
   attack traces segment identically. *)
let calibrate_threshold device rng =
  let run = Device.run_gaussian device ~scope_rng:rng ~sampler_rng:rng in
  Sca.Segment.auto_threshold_fv Sca.Segment.default (Mathkit.Fvec.of_array run.Device.trace.Power.Ptrace.samples)

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
let profiling_run device ~values ~copies seed =
  let rng = Mathkit.Prng.create ~seed () in
  let n = Device.n device in
  let forced = Array.concat (List.init copies (fun _ -> Array.copy values)) in
  let honest, _ =
    Riscv.Sampler_prog.draws_of_gaussian rng Mathkit.Gaussian.seal_default ~count:(n - Array.length forced)
  in
  let draws = Array.append (Array.map (fun v -> Device.profiling_draw device rng ~value:v) forced) honest in
  Mathkit.Prng.shuffle rng draws;
  Device.run device ~scope_rng:rng ~draws

(* Per-value window bags, filled incrementally so the archive path can
   stream chunk by chunk. *)
let make_bags values =
  let bags = Hashtbl.create (Array.length values) in
  Array.iter (fun v -> Hashtbl.replace bags v []) values;
  bags

let add_labelled bags labelled =
  Array.iter
    (fun (v, w) ->
      match Hashtbl.find_opt bags v with
      | Some lst -> Hashtbl.replace bags v (w :: lst)
      | None -> ())
    labelled

let finalize_bags values bags =
  (* Walk the bags in the caller's value order, not hash order, so any
     failure (and the class layout) is reproducible run to run. *)
  let bag v = Option.value ~default:[] (Hashtbl.find_opt bags v) in
  let total = Array.fold_left (fun acc v -> acc + List.length (bag v)) 0 values in
  if total = 0 then failwith "Campaign.profile: no profiling windows collected";
  (* Common window length: the shortest observed window. *)
  let window_length =
    Array.fold_left (fun acc v -> List.fold_left (fun acc w -> min acc (Array.length w)) acc (bag v)) max_int values
  in
  if window_length < Constants.min_window_length then
    failwith "Campaign.profile: windows too short — segmentation is misconfigured";
  let classes =
    Array.to_list values
    |> List.map (fun v ->
           let ws = Hashtbl.find bags v in
           (v, Array.of_list (List.map (fun w -> Array.sub w 0 window_length) ws)))
  in
  (window_length, classes)

let profiling_windows ?(per_value = Constants.default_per_value) ?domains ?(obs = Obs.Ctx.disabled) device rng =
  let values = Constants.default_values in
  let copies, runs = profiling_shape ~values ~per_value device in
  let threshold = Obs.Ctx.span obs "profiling.calibrate" (fun () -> calibrate_threshold device rng) in
  let segment = segment_of_threshold threshold in
  let seeds = Array.init runs (fun _ -> Mathkit.Prng.bits64 rng) in
  let one_run seed =
    let run = profiling_run device ~values ~copies seed in
    labelled_windows segment
      ~samples:(Mathkit.Fvec.of_array run.Device.trace.Power.Ptrace.samples)
      ~noises:run.Device.noises
  in
  let per_run =
    Obs.Ctx.span obs "profiling.acquire" (fun () -> Mathkit.Parallel.map_array ?domains one_run seeds)
  in
  let bags = make_bags values in
  Array.iter (add_labelled bags) per_run;
  let window_length, classes = finalize_bags values bags in
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

let profile_of_windows ~poi_count ~sign_poi_count (segment, window_length, classes) =
  let values = Array.of_list (List.map fst classes) in
  let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
  let attack = Sca.Attack.build ~poi_count ~sign_poi_count ~sigma classes in
  (* Calibrate the goodness-of-fit floors on the profiling windows
     themselves — the reference for "what an honest window looks like".
     One scratch and one window buffer serve the whole sweep. *)
  let scratch = Sca.Attack.make_scratch attack in
  let wv = Mathkit.Fvec.create window_length in
  let sign_fits = ref [] and value_fits = ref [] in
  List.iter
    (fun (label, rows) ->
      let sign = Sca.Attack.sign_of_label label in
      Array.iter
        (fun w ->
          Mathkit.Fvec.blit_from_array w wv;
          sign_fits := Sca.Attack.sign_fit_fv attack scratch wv :: !sign_fits;
          if sign <> 0 then value_fits := Sca.Attack.value_fit_fv attack scratch ~sign wv :: !value_fits)
        rows)
    classes;
  let sign_fit_floor = fit_floor (Array.of_list !sign_fits) in
  let value_fit_floor = fit_floor (Array.of_list !value_fits) in
  { Pipeline.attack; window_length; segment; values; sigma; sign_fit_floor; value_fit_floor }

(* Fit templates inside a [profiling.build] span and export the
   calibrated floors as gauges. *)
let profile ?per_value ?domains ?(obs = Obs.Ctx.disabled) ?(poi_count = Constants.default_poi_count) device rng =
  let windows = profiling_windows ?per_value ?domains ~obs device rng in
  let prof =
    Obs.Ctx.span obs "profiling.build" (fun () ->
        profile_of_windows ~poi_count ~sign_poi_count:Constants.default_sign_poi_count windows)
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

(* Stream the labelled profiling windows out of an archive: one batch
   of records resident at a time, each decoded straight into the
   vector segmentation reads, segmentation parallelised over the
   batch.  Memory is bounded by a batch of traces plus the (much
   smaller) accumulated windows, never the whole trace set. *)
let profiling_windows_of_archive path =
  Traceio.Archive.with_reader path (fun reader ->
      let h = Traceio.Archive.header reader in
      let threshold, values = profiling_meta_of_header ~path h in
      let segment = segment_of_threshold threshold in
      let bags = make_bags values in
      let rec loop () =
        let records = Traceio.Archive.next_batch reader ~max:Constants.default_batch in
        if Array.length records > 0 then begin
          let labelled =
            Mathkit.Parallel.map_array
              (fun (r : Traceio.Archive.record) -> labelled_windows segment ~samples:r.samples ~noises:r.noises)
              records
          in
          Array.iter (add_labelled bags) labelled;
          loop ()
        end
      in
      loop ();
      let window_length, classes = finalize_bags values bags in
      (segment, window_length, classes))

let profile_of_archive path =
  profile_of_windows ~poi_count:Constants.default_poi_count ~sign_poi_count:Constants.default_sign_poi_count
    (profiling_windows_of_archive path)
