(* The fuzz campaign: expand the plan, run every trial as a worker
   process under the orchestrator pool, classify, fingerprint, dedupe
   against the known store, and auto-minimize what is genuinely new.
   Everything here folds over arrays in trial order, so the batch —
   table, summary, novel list — is byte-deterministic for a fixed
   (master seed, trial count, work dir, executable). *)

type status = Passed | Novel | Known | Duplicate

type outcome = {
  o_trial : Plan.trial;
  o_verdict : Verdict.t;
  o_signature : string;
  o_status : status;
  o_archive : string option;  (** the trial's recorded campaign, when the worker got that far *)
  o_minimized : (string * Minimize.report) option;
  o_repro : string;
  o_log : string;  (** the attempt's captured output, for diagnosis *)
  o_flight : string option;  (** the worker's flight-recorder dump, for failures that left one *)
}

type batch = {
  b_outcomes : outcome array;  (** one per trial, in trial order *)
  b_summary : (string * int) list;  (** verdict kind -> count, fixed kind order *)
  b_novel : int;
  b_known : int;
  b_duplicate : int;
}

let kinds_in_order = [ "bit-exact"; "degraded-hints"; "misgrade"; "invariant-violation"; "crash"; "timeout" ]

let mkdir_p path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let read_file path =
  let ic = Traceio.Error.open_in_bin path in
  Fun.protect
    ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
    (fun () -> really_input_string ic (in_channel_length ic))

(* A worker that never produced measurements left only its typed
   failure record; normalise that into the crash/timeout verdicts.
   Details come from the typed status, never from log text. *)
let verdict_of_failures = function
  | [] -> Verdict.Crash "never-started"
  | failures -> (
      let last = List.nth failures (List.length failures - 1) in
      match last.Fabric.Orchestrator.f_status with
      | Fabric.Orchestrator.Timed_out t -> Verdict.Timeout t
      | Fabric.Orchestrator.Exited 0 -> Verdict.Crash "bad-result"
      | Fabric.Orchestrator.Exited c -> Verdict.Crash (Printf.sprintf "exit-%d" c)
      | Fabric.Orchestrator.Signaled _ ->
          let s = Fabric.Orchestrator.status_to_string last.Fabric.Orchestrator.f_status in
          Verdict.Crash (String.map (fun c -> if c = ' ' then '-' else Char.lowercase_ascii c) s))

let trial_argv ~exe ~archive ~out ~flight t =
  Array.of_list ((exe :: "trial" :: Plan.flags t) @ [ "--archive-out"; archive; "--out"; out; "--flight"; flight ])

(* Auto-minimization re-derives the expected verdict by an in-process
   replay of the trial's archive — the same deterministic computation
   the worker ran, crash families included (the worker maps pipeline
   exceptions exactly as {!Runner.replay_verdict} does).  A failure
   that does not reproduce in-process (a timeout, a crash before the
   archive finished) is reported unminimized. *)
let try_minimize t ~trial_dir ~archive =
  match archive with
  | None -> None
  | Some src -> (
      match Traceio.Archive.with_reader src Traceio.Archive.header with
      | exception (Traceio.Error.Corrupt _ | Traceio.Error.Io _) -> None
      | _ -> (
          let prof = Runner.profile_for t in
          let expected = Runner.replay_verdict t prof ~archive:src in
          if not (Verdict.is_failure expected) then None
          else
            let check path = Verdict.same_failure (Runner.replay_verdict t prof ~archive:path) expected in
            let dst = Filename.concat trial_dir "min.rvt" in
            match Minimize.reduce ~check ~work_dir:trial_dir ~src ~dst with
            | Ok report -> Some (dst, report)
            | Error _ -> None))

let run ?(minimize = true) ~exe ~work_dir ~workers ~timeout_s ~known trials =
  if workers <= 0 then invalid_arg "Fuzz.run: workers must be positive";
  mkdir_p work_dir;
  let count = Array.length trials in
  let dir id = Filename.concat work_dir (Printf.sprintf "trial-%d" id) in
  Array.iter (fun (t : Plan.trial) -> mkdir_p (dir t.Plan.id)) trials;
  let archive_path id = Filename.concat (dir id) "campaign.rvt" in
  let flight_path id = Filename.concat (dir id) "flight.jsonl" in
  let jobs =
    {
      Fabric.Orchestrator.job_count = count;
      command =
        (fun ~job ~attempt:_ ~out ~log:_ ->
          trial_argv ~exe ~archive:(archive_path job) ~out ~flight:(flight_path job) trials.(job));
      out_path = (fun ~job -> Filename.concat (dir job) "result.json");
      log_path = (fun ~job ~attempt -> Filename.concat (dir job) (Printf.sprintf "attempt-%d.log" attempt));
      collect =
        (fun ~job:_ ~out ->
          match Obs.Json.parse (read_file out) with
          | Error e -> Error ("result file does not parse: " ^ e)
          | Ok j -> (
              match Option.bind (Obs.Json.member "verdict" j) Verdict.of_json with
              | Some v -> Ok v
              | None -> Error "result file lacks a verdict"));
    }
  in
  let pool = { Fabric.Orchestrator.max_inflight = workers; retries = 0; timeout_s; fail_fast = false } in
  let r = Fabric.Orchestrator.run_pool pool jobs in
  (* classification + dedupe fold, strictly in trial order *)
  let seen = ref known in
  let outcomes =
    Array.mapi
      (fun id outcome ->
        let t = trials.(id) in
        let verdict, log =
          match outcome with
          | Ok v -> (v, jobs.Fabric.Orchestrator.log_path ~job:id ~attempt:0)
          | Error fs ->
              ( verdict_of_failures fs,
                match fs with [] -> "" | f :: _ -> f.Fabric.Orchestrator.f_log )
        in
        let signature = Signature.of_verdict t verdict in
        let status =
          if not (Verdict.is_failure verdict) then Passed
          else if Signature.mem known signature then Known
          else if Signature.mem !seen signature then Duplicate
          else begin
            seen := Signature.add !seen signature;
            Novel
          end
        in
        let archive =
          let p = archive_path id in
          if Sys.file_exists p then Some p else None
        in
        let minimized = if status = Novel && minimize then try_minimize t ~trial_dir:(dir id) ~archive else None in
        (* the flight dump only matters for failures: a clean trial's
           final moments are its result file *)
        let flight =
          let p = flight_path id in
          if Verdict.is_failure verdict && Sys.file_exists p then Some p else None
        in
        {
          o_trial = t;
          o_verdict = verdict;
          o_signature = signature;
          o_status = status;
          o_archive = archive;
          o_minimized = minimized;
          o_repro = Plan.repro_command ~exe t;
          o_log = log;
          o_flight = flight;
        })
      r.Fabric.Orchestrator.outcomes
  in
  let count_kind k = Array.fold_left (fun acc o -> if Verdict.kind o.o_verdict = k then acc + 1 else acc) 0 outcomes in
  let count_status s = Array.fold_left (fun acc o -> if o.o_status = s then acc + 1 else acc) 0 outcomes in
  {
    b_outcomes = outcomes;
    b_summary = List.map (fun k -> (k, count_kind k)) kinds_in_order;
    b_novel = count_status Novel;
    b_known = count_status Known;
    b_duplicate = count_status Duplicate;
  }
