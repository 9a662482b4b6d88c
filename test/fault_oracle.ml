(* Staged reference implementation of [Power.Fault.apply] — the oracle
   the one-pass property in test_power holds the library to, bit for
   bit.  One fresh array per stage, drop/dup through a list, jitter
   padded into a new array: the straightforward reading of the fault
   model, sharing nothing with the library beyond [config], [is_noop]
   and [Stats.percentile]. *)

open Power
open Fault

(* --- individual stages ---------------------------------------------------- *)

(* Quiet level used for padding after jitter/drops: a low percentile is
   robust to bursts dominating the trace. *)
let quiet_level samples =
  if Array.length samples = 0 then 0.0 else Mathkit.Stats.percentile samples 10.0

let apply_drift c samples =
  let period = float_of_int c.drift_period in
  Array.mapi
    (fun i s -> s +. (c.drift_amplitude *. sin (2.0 *. Float.pi *. float_of_int i /. period)))
    samples

let apply_glitches ~rng c samples =
  let n = Array.length samples in
  let samples = Array.copy samples in
  let expected = c.glitch_rate *. float_of_int n /. 1000.0 in
  (* deterministic burst count: floor plus a Bernoulli for the remainder *)
  let count =
    int_of_float expected + if Mathkit.Prng.float rng < Float.rem expected 1.0 then 1 else 0
  in
  for _ = 1 to count do
    let start = Mathkit.Prng.int rng (max 1 n) in
    let sign = if Mathkit.Prng.bool rng then 1.0 else -1.0 in
    for i = start to min (n - 1) (start + c.glitch_width - 1) do
      samples.(i) <- samples.(i) +. (sign *. c.glitch_amplitude)
    done
  done;
  samples

let apply_clip c samples =
  let n = Array.length samples in
  if n = 0 then samples
  else begin
    let lo = Array.fold_left Float.min samples.(0) samples in
    let hi = Array.fold_left Float.max samples.(0) samples in
    let ceiling = hi -. (c.clip_fraction *. (hi -. lo)) in
    Array.map (fun s -> Float.min s ceiling) samples
  end

(* One pass: each input sample is emitted 0x (drop), 1x, or 2x (dup). *)
let apply_drop_dup ~rng c samples =
  let acc = ref [] in
  let count = ref 0 in
  Array.iter
    (fun s ->
      let u = Mathkit.Prng.float rng in
      if u < c.drop_rate then ()
      else if u < c.drop_rate +. c.dup_rate then begin
        acc := s :: s :: !acc;
        count := !count + 2
      end
      else begin
        acc := s :: !acc;
        incr count
      end)
    samples;
  let out = Array.make !count 0.0 in
  let i = ref (!count - 1) in
  List.iter
    (fun s ->
      out.(!i) <- s;
      decr i)
    !acc;
  out

let apply_jitter ~rng c samples =
  let n = Array.length samples in
  let offset = Mathkit.Prng.int_in rng (-c.trigger_jitter) c.trigger_jitter in
  (* clamp after drawing, so RNG consumption is trace-length independent *)
  let offset = Int.max (-n) (Int.min n offset) in
  if offset = 0 || n = 0 then samples
  else begin
    let pad = quiet_level samples in
    let out = Array.make n pad in
    if offset > 0 then
      (* trigger fired late: the first [offset] samples were missed *)
      Array.blit samples offset out 0 (n - offset)
    else Array.blit samples 0 out (-offset) (n + offset);
    out
  end

let apply ~rng c (t : Ptrace.t) =
  if is_noop c then t
  else begin
    let s = t.Ptrace.samples in
    let s =
      if c.drift_amplitude <> 0.0 && c.drift_period <> 0 then apply_drift c s else s
    in
    let s =
      if c.glitch_rate <> 0.0 && c.glitch_amplitude <> 0.0 && c.glitch_width <> 0 then
        apply_glitches ~rng c s
      else s
    in
    let s = if c.clip_fraction <> 0.0 then apply_clip c s else s in
    let s =
      if c.drop_rate <> 0.0 || c.dup_rate <> 0.0 then apply_drop_dup ~rng c s else s
    in
    let s = if c.trigger_jitter <> 0 then apply_jitter ~rng c s else s in
    { t with Ptrace.samples = s }
  end
