type config = {
  trigger_jitter : int;
  drop_rate : float;
  dup_rate : float;
  clip_fraction : float;
  glitch_rate : float;
  glitch_amplitude : float;
  glitch_width : int;
  drift_amplitude : float;
  drift_period : int;
}

let none =
  {
    trigger_jitter = 0;
    drop_rate = 0.0;
    dup_rate = 0.0;
    clip_fraction = 0.0;
    glitch_rate = 0.0;
    glitch_amplitude = 0.0;
    glitch_width = 0;
    drift_amplitude = 0.0;
    drift_period = 0;
  }

(* Calibrated against the synthesized SEAL sampler traces: at this load
   segmentation still finds most divider bursts but a visible fraction of
   coefficients degrades to SignOnly/Unknown. *)
let full =
  {
    trigger_jitter = 48;
    drop_rate = 0.02;
    dup_rate = 0.02;
    clip_fraction = 0.35;
    glitch_rate = 1.2;
    glitch_amplitude = 18.0;
    glitch_width = 8;
    drift_amplitude = 2.5;
    drift_period = 4096;
  }

let is_noop c =
  c.trigger_jitter = 0 && c.drop_rate = 0.0 && c.dup_rate = 0.0 && c.clip_fraction = 0.0
  && (c.glitch_rate = 0.0 || c.glitch_amplitude = 0.0 || c.glitch_width = 0)
  && (c.drift_amplitude = 0.0 || c.drift_period = 0)

let of_intensity x =
  let x = Float.max 0.0 x in
  if x = 0.0 then none
  else
    let scale_i v = int_of_float (Float.round (x *. float_of_int v)) in
    {
      trigger_jitter = scale_i full.trigger_jitter;
      drop_rate = x *. full.drop_rate;
      dup_rate = x *. full.dup_rate;
      clip_fraction = Float.min 0.95 (x *. full.clip_fraction);
      glitch_rate = x *. full.glitch_rate;
      glitch_amplitude = full.glitch_amplitude;
      glitch_width = full.glitch_width;
      drift_amplitude = x *. full.drift_amplitude;
      drift_period = full.drift_period;
    }

(* --- the fault pass ------------------------------------------------------------ *)

(* The stages run in their semantic order — drift, glitches, clipping,
   drop/dup, jitter.  Drift is added as the trace is copied into the
   domain's working buffer, glitches update that copy in place,
   clipping is folded into the loop that emits the output, and jitter
   shifts the output in place.  Each stage draws exactly what it would
   draw on its own, in the same order, so the output is what running
   the stages one fresh array at a time gives, bit for bit, and it is
   the pass's only trace-length allocation. *)

(* [Float.min]/[Float.max] with the strict comparisons inline: without
   flambda a call into [Float] boxes both arguments, once per sample.
   Ties and nans, where signed zeros and nan propagation decide the
   result, go to the stdlib functions themselves. *)
let[@inline] fmin (x : float) y = if x < y then x else if y < x then y else Float.min x y
let[@inline] fmax (x : float) y = if x > y then x else if y > x then y else Float.max x y

(* Each domain's scratch, never shared and never returned:
   - the drift row of the last config applied, keyed by the amplitude's
     bits and the period: the drift of sample [i] depends only on the
     config and [i], and is not bitwise periodic in [i], so the row
     holds one float per sample of the longest trace since the key
     changed and is extended on demand;
   - the working copy (drift, glitches, the clip ceiling), which once
     the output is emitted becomes the buffer jitter's percentile
     selection permutes;
   - one drop/dup draw, then fate, per sample. *)
type scratch = {
  mutable amplitude : int64;
  mutable period : int;
  mutable row : float array;
  mutable work : float array;
  mutable fates : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { amplitude = 0L; period = 0; row = [||]; work = [||]; fates = [||] })

(* Buffers grow with an eighth to spare, so traces a little longer than
   the last do not each reallocate. *)
let spare n = n + (n / 8)

let work sc n =
  if Array.length sc.work < n then sc.work <- Array.create_float (spare n);
  sc.work

let fates sc n =
  if Array.length sc.fates < n then sc.fates <- Array.make (spare n) 0;
  sc.fates

(* A row at least [n] long. *)
let drift_row sc c n =
  let amplitude = Int64.bits_of_float c.drift_amplitude in
  let same = Int64.equal sc.amplitude amplitude && sc.period = c.drift_period in
  let have = if same then Array.length sc.row else 0 in
  if have < n then begin
    let period = float_of_int c.drift_period and row = Array.create_float n in
    Array.blit sc.row 0 row 0 have;
    for i = have to n - 1 do
      row.(i) <- c.drift_amplitude *. sin (2.0 *. Float.pi *. float_of_int i /. period)
    done;
    sc.amplitude <- amplitude;
    sc.period <- c.drift_period;
    sc.row <- row
  end;
  sc.row

let glitches ~rng c s n =
  let expected = c.glitch_rate *. float_of_int n /. 1000.0 in
  (* deterministic burst count: floor plus a Bernoulli for the remainder *)
  let count =
    int_of_float expected + if Mathkit.Prng.float rng < Float.rem expected 1.0 then 1 else 0
  in
  for _ = 1 to count do
    let start = Mathkit.Prng.int rng (max 1 n) in
    let sign = if Mathkit.Prng.bool rng then 1.0 else -1.0 in
    for i = start to min (n - 1) (start + c.glitch_width - 1) do
      s.(i) <- s.(i) +. (sign *. c.glitch_amplitude)
    done
  done

(* Saturation level: everything above it is clipped to it. *)
let clip_ceiling c s n =
  let lo = ref s.(0) and hi = ref s.(0) in
  for i = 0 to n - 1 do
    lo := fmin !lo s.(i);
    hi := fmax !hi s.(i)
  done;
  !hi -. (c.clip_fraction *. (!hi -. !lo))

(* Each of the [n] samples of [s] is emitted 0x (drop), 1x, or 2x (dup),
   clipped to [ceiling] if there is one.  Every fate is drawn first, one
   uniform per sample, so the output is allocated once at its exact
   length. *)
let drop_dup ~rng c ~ceiling sc s n =
  let fate = fates sc n in
  Mathkit.Prng.fill_bits53 rng fate ~len:n;
  let count = ref 0 in
  for i = 0 to n - 1 do
    let u = float_of_int fate.(i) *. 0x1p-53 in
    let k = if u < c.drop_rate then 0 else if u < c.drop_rate +. c.dup_rate then 2 else 1 in
    fate.(i) <- k;
    count := !count + k
  done;
  let out = Array.create_float !count in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let k = fate.(i) in
    if k > 0 then begin
      let v = match ceiling with Some m -> fmin s.(i) m | None -> s.(i) in
      out.(!j) <- v;
      if k = 2 then out.(!j + 1) <- v;
      j := !j + k
    end
  done;
  out

let jitter ~rng c sc s =
  let n = Array.length s in
  let offset = Mathkit.Prng.int_in rng (-c.trigger_jitter) c.trigger_jitter in
  (* clamp after drawing, so RNG consumption is trace-length independent *)
  let offset = Int.max (-n) (Int.min n offset) in
  if offset <> 0 then begin
    (* pad with the quiet level: a low percentile is robust to bursts
       dominating the trace (offset <> 0, so the trace is not empty);
       the selection permutes a copy in the spent working buffer *)
    let sel = work sc n in
    Array.blit s 0 sel 0 n;
    let pad = Mathkit.Stats.percentile_in_place sel ~len:n 10.0 in
    if offset > 0 then begin
      (* trigger fired late: the first [offset] samples were missed *)
      Array.blit s offset s 0 (n - offset);
      Array.fill s (n - offset) offset pad
    end
    else begin
      Array.blit s 0 s (-offset) (n + offset);
      Array.fill s 0 (-offset) pad
    end
  end

let apply ~rng c (t : Ptrace.t) =
  if is_noop c then t
  else begin
    let src = t.Ptrace.samples and sc = Domain.DLS.get scratch_key in
    let n = Array.length src in
    let s = work sc n in
    if c.drift_amplitude <> 0.0 && c.drift_period <> 0 then begin
      let row = drift_row sc c n in
      for i = 0 to n - 1 do
        s.(i) <- src.(i) +. row.(i)
      done
    end
    else Array.blit src 0 s 0 n;
    if c.glitch_rate <> 0.0 && c.glitch_amplitude <> 0.0 && c.glitch_width <> 0 then
      glitches ~rng c s n;
    let ceiling = if c.clip_fraction <> 0.0 && n > 0 then Some (clip_ceiling c s n) else None in
    let out =
      if c.drop_rate <> 0.0 || c.dup_rate <> 0.0 then drop_dup ~rng c ~ceiling sc s n
      else begin
        let out = Array.sub s 0 n in
        (match ceiling with
        | Some m ->
            for i = 0 to n - 1 do
              out.(i) <- fmin out.(i) m
            done
        | None -> ());
        out
      end
    in
    if c.trigger_jitter <> 0 then jitter ~rng c sc out;
    { t with Ptrace.samples = out }
  end
