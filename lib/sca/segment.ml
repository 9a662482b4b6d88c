type threshold = Auto | Absolute of float

type config = {
  threshold : threshold;
  smooth_radius : int;
  merge_gap : int;
  min_burst : int;
}

let default = { threshold = Auto; smooth_radius = 2; merge_gap = 55; min_burst = 4 }

type window = { start : int; stop : int }

(* The segmentation kernels are Fvec-native: one borrowed view of the
   trace in, no per-stage copies. *)

module Fvec = Mathkit.Fvec

(* The centred moving average at [i] of the [n] samples from [off] in
   [buf]: the window [i - radius, i + radius] clipped to the trace,
   summed in ascending order from 0.0, divided once by its width.  The
   one statement of the smoothing formula; inlined, so the average is
   never boxed.  The caller validates [off, off + n). *)
let[@inline] smoothed (buf : Fvec.buffer) off n radius i =
  let lo = Int.max 0 (i - radius) and hi = Int.min (n - 1) (i + radius) in
  let acc = ref 0.0 in
  for j = lo to hi do
    (* srclint: allow unsafe-index j stays in [0,n) and the caller check_range's the view *)
    acc := !acc +. Bigarray.Array1.unsafe_get buf (off + j)
  done;
  !acc /. float_of_int (hi - lo + 1)

let smooth_fv radius samples =
  if radius <= 0 then Fvec.copy samples
  else begin
    let n = Fvec.length samples in
    let buf = Fvec.buffer samples and off = Fvec.offset samples in
    Fvec.check_range buf ~off ~len:n "Segment.smooth_fv";
    let out = Fvec.create n in
    let obuf = Fvec.buffer out in
    for i = 0 to n - 1 do
      (* srclint: allow unsafe-index out is freshly created with length n *)
      Bigarray.Array1.unsafe_set obuf i (smoothed buf off n radius i)
    done;
    out
  end

(* Otsu's method: pick the level that best separates the bimodal
   power histogram (busy divider vs ordinary code).  Unlike a
   percentile midpoint, it does not care what fraction of the trace is
   spent in each mode, so it survives very slow or very fast dividers. *)
let otsu_fv samples =
  if Fvec.length samples = 0 then 0.0
  else
    let lo, hi = Fvec.minmax samples in
    if hi -. lo <= 0.0 then lo
    else begin
      let bins = 256 in
      let hist = Fvec.histogram ~bins ~lo ~hi:(hi +. 1e-9) samples in
      let total = float_of_int (Fvec.length samples) in
      let sum_all = ref 0.0 in
      Array.iteri (fun b c -> sum_all := !sum_all +. (float_of_int b *. float_of_int c)) hist;
      let best_t = ref 0 and best_var = ref neg_infinity in
      let best_mu0 = ref 0.0 and best_mu1 = ref 0.0 in
      let w0 = ref 0.0 and sum0 = ref 0.0 in
      for t = 0 to bins - 1 do
        w0 := !w0 +. float_of_int hist.(t);
        sum0 := !sum0 +. (float_of_int t *. float_of_int hist.(t));
        let w1 = total -. !w0 in
        if !w0 > 0.0 && w1 > 0.0 then begin
          let mu0 = !sum0 /. !w0 and mu1 = (!sum_all -. !sum0) /. w1 in
          let between = !w0 *. w1 *. (mu0 -. mu1) *. (mu0 -. mu1) in
          if between > !best_var then begin
            best_var := between;
            best_t := t;
            best_mu0 := mu0;
            best_mu1 := mu1
          end
        end
      done;
      let of_bin b = lo +. ((hi -. lo) *. (b +. 0.5) /. float_of_int bins) in
      (* Bias the cut towards the high mode: only the divider plateau
         should clear it, not the tallest loads/stores of ordinary code
         (whose height is data-dependent and would wiggle the window
         boundaries with the secret). *)
      of_bin (!best_mu0 +. (0.75 *. (!best_mu1 -. !best_mu0)))
    end

let auto_threshold_fv cfg samples =
  let s = smooth_fv cfg.smooth_radius samples in
  otsu_fv s

(* The maximal runs of samples whose [radius]-smoothed value exceeds
   [threshold], each tested as it is formed: no smoothed copy.  The
   average of a radius-0 window is the sample itself up to the sign of
   a zero, which [>] does not see. *)
let runs_above samples ~radius threshold =
  let n = Fvec.length samples in
  let buf = Fvec.buffer samples and off = Fvec.offset samples in
  Fvec.check_range buf ~off ~len:n "Segment.burst_regions_fv";
  let radius = Int.max 0 radius in
  let runs = ref [] in
  let run_start = ref (-1) in
  for i = 0 to n - 1 do
    if smoothed buf off n radius i > threshold then begin
      if !run_start < 0 then run_start := i
    end
    else if !run_start >= 0 then begin
      runs := { start = !run_start; stop = i } :: !runs;
      run_start := -1
    end
  done;
  if !run_start >= 0 then runs := { start = !run_start; stop = n } :: !runs;
  List.rev !runs

let burst_regions_fv cfg samples =
  let n = Fvec.length samples in
  if n = 0 then [||]
  else begin
    let runs =
      match cfg.threshold with
      | Absolute t -> runs_above samples ~radius:cfg.smooth_radius t
      | Auto ->
          (* Otsu needs the whole smoothed histogram first *)
          let s = smooth_fv cfg.smooth_radius samples in
          runs_above s ~radius:0 (otsu_fv s)
    in
    (* Group runs separated by less than merge_gap into one burst. *)
    let groups =
      List.fold_left
        (fun acc r ->
          match acc with
          | (last :: _ as grp) :: rest when r.start - last.stop < cfg.merge_gap -> (r :: grp) :: rest
          | _ -> [ r ] :: acc)
        [] runs
      |> List.rev_map List.rev
    in
    (* Anchor each burst on its long runs only: short slivers at the
       edges (a single data-dependent load or store crossing the
       threshold) must not move the boundary, or windows would shift
       with the secret data they start with. *)
    let anchor grp =
      match List.filter (fun r -> r.stop - r.start >= cfg.min_burst) grp with
      | [] -> None
      | long ->
          let first = List.hd long and last = List.nth long (List.length long - 1) in
          Some { start = first.start; stop = last.stop }
    in
    List.filter_map anchor groups |> Array.of_list
  end

let windows_of_bursts bursts ~trace_len =
  Array.mapi
    (fun i b ->
      let stop = if i + 1 < Array.length bursts then bursts.(i + 1).start else trace_len in
      { start = b.stop; stop })
    bursts

let windows_fv cfg samples = windows_of_bursts (burst_regions_fv cfg samples) ~trace_len:(Fvec.length samples)

(* A window fully inside both its burst span and the trace is a
   borrowed sub-view (no copy); a short window gets a zero-padded
   fresh vector.  Values are identical either way. *)
let views samples wins ~length =
  if length <= 0 then invalid_arg "Segment.views: length must be positive";
  let n = Fvec.length samples in
  Array.map
    (fun w ->
      if w.start + length <= w.stop && w.start + length <= n then Fvec.sub samples w.start length
      else
        Fvec.init length (fun i ->
            let idx = w.start + i in
            if idx < w.stop && idx < n then Fvec.get samples idx else 0.0))
    wins

(* --- resilient segmentation ------------------------------------------------ *)

type quality = Clean | Resynced | Suspect

type segment_error =
  | Empty_trace
  | Flat_trace
  | Count_mismatch of { expected : int; found : int }

type segmented = { wins : window array; quality : quality array }

let error_to_string = function
  | Empty_trace -> "empty trace"
  | Flat_trace -> "flat trace: no bursts above threshold"
  | Count_mismatch { expected; found } ->
      Printf.sprintf "found %d bursts where %d were expected" found expected

let median xs = Mathkit.Stats.percentile xs 50.0

let burst_lengths bursts = Array.map (fun b -> float_of_int (b.stop - b.start)) bursts

(* Glitch bursts masquerade as distribution calls but are much shorter
   than the real divider plateau: drop the shortest sub-median bursts
   until the count fits. *)
let drop_spurious bursts ~expected =
  let excess = Array.length bursts - expected in
  let med = median (burst_lengths bursts) in
  let candidates =
    Array.to_list bursts
    |> List.mapi (fun i b -> (i, b))
    |> List.filter (fun (_, b) -> float_of_int (b.stop - b.start) < 0.6 *. med)
    |> List.sort (fun (_, a) (_, b) -> compare (a.stop - a.start) (b.stop - b.start))
  in
  let doomed = List.filteri (fun k _ -> k < excess) candidates |> List.map fst in
  let keep = Array.to_list bursts |> List.mapi (fun i b -> (i, b)) |> List.filter (fun (i, _) -> not (List.mem i doomed)) in
  let removed = List.filter (fun (i, _) -> List.mem i doomed) (Array.to_list bursts |> List.mapi (fun i b -> (i, b))) in
  (Array.of_list (List.map snd keep), List.map snd removed)

(* A missed burst (clipped away, or fused into its neighbour) leaves a
   gap of ~k periods between consecutive bursts.  Re-synchronise by
   planting synthetic bursts at the expected cadence; windows touching
   one are flagged Resynced. *)
let resync bursts ~expected ~trace_len =
  let count = Array.length bursts in
  if count < 2 then (bursts, [])
  else begin
    let periods =
      Array.init (count - 1) (fun i -> float_of_int (bursts.(i + 1).start - bursts.(i).start))
    in
    let p = median periods in
    let w = int_of_float (median (burst_lengths bursts)) in
    if p <= 0.0 then (bursts, [])
    else begin
      let missing = ref (expected - count) in
      let out = ref [] in
      let synth = ref [] in
      let plant start =
        let b = { start; stop = min trace_len (start + max 1 w) } in
        out := b :: !out;
        synth := b :: !synth;
        decr missing
      in
      for i = 0 to count - 1 do
        out := bursts.(i) :: !out;
        (* the tail gap runs to the end of the trace: the final burst
           may itself have been missed *)
        let gap_end = if i + 1 < count then bursts.(i + 1).start else trace_len in
        let d = float_of_int (gap_end - bursts.(i).start) in
        let k = min (max 0 (int_of_float (Float.round (d /. p)) - 1)) !missing in
        for j = 1 to k do
          plant (bursts.(i).start + int_of_float (float_of_int j *. d /. float_of_int (k + 1)))
        done
      done;
      let arr = Array.of_list (List.rev !out) in
      Array.sort (fun a b -> compare a.start b.start) arr;
      (arr, !synth)
    end
  end

let segment_fv cfg ~expected samples =
  if expected <= 0 then invalid_arg "Segment.segment_fv: expected must be positive";
  let trace_len = Fvec.length samples in
  if trace_len = 0 then Error Empty_trace
  else begin
    let bursts = burst_regions_fv cfg samples in
    if Array.length bursts = 0 then Error Flat_trace
    else begin
      let bursts, removed =
        if Array.length bursts > expected then drop_spurious bursts ~expected else (bursts, [])
      in
      let bursts, synthetic =
        if Array.length bursts < expected then resync bursts ~expected ~trace_len
        else (bursts, [])
      in
      let found = Array.length bursts in
      if found <> expected then Error (Count_mismatch { expected; found })
      else begin
        let wins = windows_of_bursts bursts ~trace_len in
        let touched w bs =
          List.exists (fun b -> b.start >= w.start - 1 && b.start <= w.stop) bs
        in
        let is_synth b = List.exists (fun s -> s.start = b.start && s.stop = b.stop) synthetic in
        let quality =
          Array.mapi
            (fun i w ->
              (* a window is resynchronised if either delimiting burst is
                 synthetic, or a spurious burst was excised inside it *)
              let lead_synth = is_synth bursts.(i) in
              let trail_synth = i + 1 < found && is_synth bursts.(i + 1) in
              if lead_synth || trail_synth || touched w removed then Resynced else Clean)
            wins
        in
        (* Length-plausibility: a window far from the median length was
           mis-delimited even if the burst count worked out.  Only a
           Clean window is demoted: a window next to a planted or
           excised burst is the likeliest to have an odd length, and
           Resynced is the flag the gate relies on. *)
        let lens = Array.map (fun w -> float_of_int (w.stop - w.start)) wins in
        let med = median lens in
        let mad = median (Array.map (fun l -> Float.abs (l -. med)) lens) in
        let scale = Float.max mad (0.05 *. med) in
        Array.iteri
          (fun i l -> if quality.(i) = Clean && Float.abs (l -. med) > 3.5 *. scale then quality.(i) <- Suspect)
          lens;
        Ok { wins; quality }
      end
    end
  end
