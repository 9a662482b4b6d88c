(* Deterministic corpus minimization: shrink a failing archive to the
   smallest record subset, then the smallest per-record sample span,
   that still reproduces the verdict.  Reproduction is whatever the
   [check] probe says — the loops below only ever propose candidates
   and keep the smallest accepted one, so the result reproduces by
   construction and the whole walk is a pure function of (src, check).

   Record removal is ddmin-shaped (chunked removal with rescan before
   halving); the span search is stepped greedy cuts from each end.  A
   plain bisection would be unsound for both: reproduction is not
   monotone in either the record set or the span. *)

type report = {
  original_records : int;
  kept : int list;
  span : (int * int) option;
  original_bytes : int;
  reduced_bytes : int;
  probes : int;
}

let reduce ~check ~work_dir ~src ~dst =
  let original_records = Traceio.Archive.with_reader src (fun r -> (Traceio.Archive.header r).Traceio.Archive.trace_count) in
  let original_bytes = Traceio.Archive.file_size src in
  if not (check src) then Error "the original archive does not reproduce the expected verdict"
  else begin
    let cand = Filename.concat work_dir "minimize-candidate.rvt" in
    let probes = ref 0 in
    let try_candidate ~keep ~span =
      ignore (Traceio.Archive.rewrite ~keep ?span ~src ~dst:cand ());
      incr probes;
      check cand
    in
    (* --- pass 1: smallest record subset --- *)
    let remove_chunk kept chunk =
      let n = List.length kept in
      let rec scan start =
        if start >= n then None
        else
          let c = List.filteri (fun i _ -> i < start || i >= start + chunk) kept in
          if try_candidate ~keep:c ~span:None then Some c else scan (start + chunk)
      in
      scan 0
    in
    let rec shrink_records kept chunk =
      if chunk = 0 then kept
      else if chunk >= List.length kept then shrink_records kept (chunk / 2)
      else
        match remove_chunk kept chunk with
        | Some c -> shrink_records c (min chunk (List.length c))
        | None -> shrink_records kept (chunk / 2)
    in
    let all = List.init original_records (fun i -> i) in
    let kept = shrink_records all (max 1 (original_records / 2)) in
    (* --- pass 2: smallest sample span, clamped per record --- *)
    ignore (Traceio.Archive.rewrite ~keep:kept ~src ~dst:cand ());
    let max_len =
      Traceio.Archive.fold cand (fun acc r -> max acc (Mathkit.Fvec.length r.Traceio.Archive.samples)) 0
    in
    let rec cut_hi (lo, hi) step =
      if step = 0 then (lo, hi)
      else if hi - step > lo && try_candidate ~keep:kept ~span:(Some (lo, hi - step)) then cut_hi (lo, hi - step) step
      else cut_hi (lo, hi) (step / 2)
    in
    let rec cut_lo (lo, hi) step =
      if step = 0 then (lo, hi)
      else if lo + step < hi && try_candidate ~keep:kept ~span:(Some (lo + step, hi)) then cut_lo (lo + step, hi) step
      else cut_lo (lo, hi) (step / 2)
    in
    let full = (0, max_len) in
    let after_hi = cut_hi full (max_len / 2) in
    let lo, hi = cut_lo after_hi ((snd after_hi - fst after_hi) / 2) in
    let span = if (lo, hi) = full then None else Some (lo, hi) in
    (* --- emit and re-verify the minimal archive --- *)
    ignore (Traceio.Archive.rewrite ~keep:kept ?span ~src ~dst ());
    (try Sys.remove cand with Sys_error _ -> ());
    if not (check dst) then Error "internal: the minimized archive stopped reproducing (non-deterministic check?)"
    else
      Ok
        {
          original_records;
          kept;
          span;
          original_bytes;
          reduced_bytes = Traceio.Archive.file_size dst;
          probes = !probes;
        }
  end

let describe r =
  Printf.sprintf "%d/%d record(s) kept%s, %d -> %d bytes (%d probes)" (List.length r.kept) r.original_records
    (match r.span with None -> "" | Some (lo, hi) -> Printf.sprintf ", samples cropped to [%d,%d)" lo hi)
    r.original_bytes r.reduced_bytes r.probes

let to_json r =
  Obs.Json.Obj
    [
      ("original_records", Obs.Json.Int r.original_records);
      ("kept_records", Obs.Json.List (List.map (fun i -> Obs.Json.Int i) r.kept));
      ( "span",
        match r.span with
        | None -> Obs.Json.Null
        | Some (lo, hi) -> Obs.Json.List [ Obs.Json.Int lo; Obs.Json.Int hi ] );
      ("original_bytes", Obs.Json.Int r.original_bytes);
      ("reduced_bytes", Obs.Json.Int r.reduced_bytes);
      ("probes", Obs.Json.Int r.probes);
    ]
