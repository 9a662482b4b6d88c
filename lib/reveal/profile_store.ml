(* Versioned binary codec in the traceio format family: magic + u16
   version + one CRC-framed payload.  Version 1 was the Marshal-based
   cache; version 2 introduced this explicit encoding; version 3 added
   the calibrated goodness-of-fit floors, so stale caches are
   detected by their magic/version instead of crashing Marshal. *)

let put_template b (t : Sca.Template.t) =
  Traceio.Codec.put_ints b t.Sca.Template.labels;
  Traceio.Binio.put_varint b (Int64.of_int (Array.length t.Sca.Template.means));
  Array.iter (Traceio.Codec.put_floats b) t.Sca.Template.means;
  (* v3 layout: one float row per matrix row, in row order *)
  let cov = Mathkit.Fmat.to_arrays t.Sca.Template.inv_cov in
  Traceio.Binio.put_varint b (Int64.of_int (Array.length cov));
  Array.iter (Traceio.Codec.put_floats b) cov;
  Traceio.Binio.put_f64 b t.Sca.Template.log_det;
  Traceio.Codec.put_ints b t.Sca.Template.pois

let get_template ~path c =
  let labels = Traceio.Codec.get_ints c in
  let rows = Traceio.Binio.get_varint_int c in
  if rows <> Array.length labels then
    Traceio.Error.corruptf "%s: template has %d mean vectors for %d labels" path rows (Array.length labels);
  let means = Array.init rows (fun _ -> Traceio.Codec.get_floats c) in
  let d = Traceio.Binio.get_varint_int c in
  let cov = Array.init d (fun _ -> Traceio.Codec.get_floats c) in
  Array.iteri
    (fun i row ->
      if Array.length row <> d then
        Traceio.Error.corruptf "%s: covariance row %d has %d columns in a %dx%d matrix" path i (Array.length row) d d)
    cov;
  let log_det = Traceio.Binio.get_f64 c in
  let pois = Traceio.Codec.get_ints c in
  let inv_cov = Mathkit.Fmat.of_matrix (Mathkit.Matrix.of_arrays cov) in
  { Sca.Template.labels; means; inv_cov; log_det; pois }

let put_threshold b = function
  | Sca.Segment.Auto -> Traceio.Binio.put_u8 b 0
  | Sca.Segment.Percentile p ->
      Traceio.Binio.put_u8 b 1;
      Traceio.Binio.put_f64 b p
  | Sca.Segment.Absolute a ->
      Traceio.Binio.put_u8 b 2;
      Traceio.Binio.put_f64 b a

let get_threshold ~path c =
  match Traceio.Binio.get_u8 c with
  | 0 -> Sca.Segment.Auto
  | 1 -> Sca.Segment.Percentile (Traceio.Binio.get_f64 c)
  | 2 -> Sca.Segment.Absolute (Traceio.Binio.get_f64 c)
  | t -> Traceio.Error.corruptf "%s: unknown segmentation-threshold tag %d" path t

let profile_payload (prof : Pipeline.profile) =
  let b = Buffer.create 65536 in
  put_threshold b prof.segment.Sca.Segment.threshold;
  Traceio.Binio.put_varint b (Int64.of_int prof.segment.Sca.Segment.smooth_radius);
  Traceio.Binio.put_varint b (Int64.of_int prof.segment.Sca.Segment.merge_gap);
  Traceio.Binio.put_varint b (Int64.of_int prof.segment.Sca.Segment.min_burst);
  Traceio.Binio.put_varint b (Int64.of_int prof.window_length);
  Traceio.Codec.put_ints b prof.values;
  Traceio.Binio.put_f64 b prof.sigma;
  Traceio.Binio.put_f64 b prof.sign_fit_floor;
  Traceio.Binio.put_f64 b prof.value_fit_floor;
  let a = prof.attack in
  put_template b a.Sca.Attack.sign_template;
  put_template b a.Sca.Attack.neg_template;
  put_template b a.Sca.Attack.pos_template;
  Traceio.Codec.put_floats b a.Sca.Attack.neg_priors;
  Traceio.Codec.put_floats b a.Sca.Attack.pos_priors;
  Traceio.Codec.put_floats b a.Sca.Attack.prior_of_sign;
  Traceio.Codec.put_ints b a.Sca.Attack.pois_sign;
  Traceio.Codec.put_ints b a.Sca.Attack.pois_neg;
  Traceio.Codec.put_ints b a.Sca.Attack.pois_pos;
  Buffer.contents b

let profile_of_payload ~path payload =
  let c = Traceio.Binio.cursor ~name:path payload in
  let threshold = get_threshold ~path c in
  let smooth_radius = Traceio.Binio.get_varint_int c in
  let merge_gap = Traceio.Binio.get_varint_int c in
  let min_burst = Traceio.Binio.get_varint_int c in
  let segment = { Sca.Segment.threshold; smooth_radius; merge_gap; min_burst } in
  let window_length = Traceio.Binio.get_varint_int c in
  let values = Traceio.Codec.get_ints c in
  let sigma = Traceio.Binio.get_f64 c in
  let sign_fit_floor = Traceio.Binio.get_f64 c in
  let value_fit_floor = Traceio.Binio.get_f64 c in
  let sign_template = get_template ~path c in
  let neg_template = get_template ~path c in
  let pos_template = get_template ~path c in
  let neg_priors = Traceio.Codec.get_floats c in
  let pos_priors = Traceio.Codec.get_floats c in
  let prior_of_sign = Traceio.Codec.get_floats c in
  let pois_sign = Traceio.Codec.get_ints c in
  let pois_neg = Traceio.Codec.get_ints c in
  let pois_pos = Traceio.Codec.get_ints c in
  Traceio.Binio.expect_end c;
  let attack =
    {
      Sca.Attack.sign_template;
      neg_template;
      pos_template;
      neg_priors;
      pos_priors;
      prior_of_sign;
      pois_sign;
      pois_neg;
      pois_pos;
    }
  in
  { Pipeline.attack; window_length; segment; values; sigma; sign_fit_floor; value_fit_floor }

let save path prof =
  Traceio.Frame.save ~path ~magic:Constants.profile_magic ~version:Constants.profile_version (profile_payload prof)

(* A Marshal-era v1 cache, a cache from another format version and a
   damaged one all have the same remedy. *)
let load path =
  try
    profile_of_payload ~path
      (Traceio.Frame.load ~path ~what:"profile cache" ~magic:Constants.profile_magic
         ~version:Constants.profile_version)
  with Traceio.Error.Corrupt msg ->
    Traceio.Error.corruptf "Campaign.load_profile: stale or corrupt cache: %s — delete it and re-run profiling" msg
