(* Distributed campaign fabric: wire protocol corruption discipline,
   shard planning/merging determinism, and the orchestrator's retry
   machinery — including the end-to-end bit-identity guarantee: a
   campaign sharded over real worker processes merges to exactly the
   bytes the single-process run produces. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let with_temp_file f =
  let path = Filename.temp_file "reveal_fabric" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let rejected f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true
  | exception Traceio.Error.Corrupt _ -> true
  | exception Traceio.Error.Io _ -> true

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* --- shard planning --------------------------------------------------------- *)

let test_plan_directed () =
  let ranges = Fabric.Shard.plan ~traces:7 ~workers:3 in
  Alcotest.(check (list (pair int int)))
    "7 over 3: first shard takes the extra"
    [ (0, 3); (3, 5); (5, 7) ]
    (Array.to_list (Array.map (fun r -> (r.Fabric.Shard.lo, r.Fabric.Shard.hi)) ranges));
  let empties = Fabric.Shard.plan ~traces:2 ~workers:4 in
  Alcotest.(check int) "more workers than traces: empty tail ranges" 4 (Array.length empties);
  Alcotest.(check (list (pair int int)))
    "empty ranges still tile"
    [ (0, 1); (1, 2); (2, 2); (2, 2) ]
    (Array.to_list (Array.map (fun r -> (r.Fabric.Shard.lo, r.Fabric.Shard.hi)) empties));
  Alcotest.check_raises "zero workers rejected" (Invalid_argument "Shard.plan: workers must be positive") (fun () ->
      ignore (Fabric.Shard.plan ~traces:4 ~workers:0));
  Alcotest.check_raises "negative traces rejected" (Invalid_argument "Shard.plan: negative trace count") (fun () ->
      ignore (Fabric.Shard.plan ~traces:(-1) ~workers:2))

let qcheck_plan =
  QCheck.Test.make ~count:300 ~name:"plan: contiguous cover of [0,traces), sizes within 1"
    QCheck.(pair (int_range 0 200) (int_range 1 32))
    (fun (traces, workers) ->
      let plan = Fabric.Shard.plan ~traces ~workers in
      let tiles =
        Array.fold_left
          (fun acc r ->
            match acc with
            | Some pos when r.Fabric.Shard.lo = pos && r.Fabric.Shard.hi >= r.Fabric.Shard.lo ->
                Some r.Fabric.Shard.hi
            | _ -> None)
          (Some 0) plan
      in
      let sizes = Array.map (fun r -> r.Fabric.Shard.hi - r.Fabric.Shard.lo) plan in
      let mn = Array.fold_left min max_int sizes and mx = Array.fold_left max 0 sizes in
      Array.length plan = workers && tiles = Some traces && mx - mn <= 1)

(* --- shard result codec ------------------------------------------------------ *)

let mk_result i =
  {
    Reveal.Campaign.actual = (i mod 9) - 4;
    verdict =
      {
        Sca.Attack.sign = (if i mod 2 = 0 then 1 else -1);
        value = (i mod 9) - 4;
        posterior = Array.init 8 (fun j -> (j - 4, 1.0 /. float_of_int (i + j + 2)));
      };
    posterior_all = Array.init 29 (fun j -> (j - 14, 1.0 /. float_of_int (i + j + 2)));
    grade =
      (match i mod 4 with
      | 0 -> Reveal.Campaign.Confident
      | 1 -> Reveal.Campaign.Tentative
      | 2 -> Reveal.Campaign.SignOnly
      | _ -> Reveal.Campaign.Unknown);
    recovery =
      (match i mod 3 with
      | 0 -> Reveal.Campaign.Clean
      | 1 -> Reveal.Campaign.Retried (i mod 5)
      | _ -> Reveal.Campaign.Unrecoverable);
  }

let sample_result =
  lazy
    {
      Fabric.Shard.shard = 2;
      range = { Fabric.Shard.lo = 6; hi = 9 };
      corrupt_skipped = 1;
      results = Array.init 48 mk_result;
    }

let test_shard_codec_roundtrip () =
  let r = Lazy.force sample_result in
  let payload = Fabric.Shard.result_payload r in
  let decoded = Fabric.Shard.result_of_payload ~path:"<mem>" payload in
  Alcotest.(check string) "decode/encode is the identity on the payload" payload
    (Fabric.Shard.result_payload decoded);
  Alcotest.(check int) "shard id survives" r.Fabric.Shard.shard decoded.Fabric.Shard.shard;
  Alcotest.(check bool) "range survives" true (decoded.Fabric.Shard.range = r.Fabric.Shard.range);
  Alcotest.(check bool) "results are structurally identical" true (decoded.Fabric.Shard.results = r.Fabric.Shard.results);
  with_temp_file (fun path ->
      Fabric.Shard.save path r;
      let loaded = Fabric.Shard.load path in
      Alcotest.(check string) "save/load preserves the payload bytes" payload (Fabric.Shard.result_payload loaded))

let qcheck_shard_codec =
  let payload = lazy (Fabric.Shard.result_payload (Lazy.force sample_result)) in
  let file_image =
    lazy
      (with_temp_file (fun path ->
           Fabric.Shard.save path (Lazy.force sample_result);
           read_file path))
  in
  [
    QCheck.Test.make ~count:50 ~name:"shard result: truncated payload rejected"
      QCheck.(float_range 0.0 1.0)
      (fun frac ->
        let payload = Lazy.force payload in
        let keep = int_of_float (frac *. float_of_int (String.length payload - 1)) in
        rejected (fun () -> Fabric.Shard.result_of_payload ~path:"<mem>" (String.sub payload 0 keep)));
    QCheck.Test.make ~count:50 ~name:"shard result: single bit flip in file rejected"
      QCheck.(float_range 0.0 1.0)
      (fun frac ->
        let image = Lazy.force file_image in
        let bit = int_of_float (frac *. float_of_int ((String.length image * 8) - 1)) in
        let mutated = Bytes.of_string image in
        Bytes.set mutated (bit / 8) (Char.chr (Char.code image.[bit / 8] lxor (1 lsl (bit mod 8))));
        with_temp_file (fun path ->
            write_file path (Bytes.to_string mutated);
            rejected (fun () -> Fabric.Shard.load path)));
  ]

(* --- shard merge ------------------------------------------------------------- *)

let campaign_profile =
  lazy
    (let rng = Mathkit.Prng.create ~seed:54398L () in
     let device = Reveal.Device.create ~n:64 () in
     Reveal.Campaign.profile ~per_value:20 device rng)

let test_merge_checks () =
  let prof = Lazy.force campaign_profile in
  let slice shard lo hi =
    { Fabric.Shard.shard; range = { Fabric.Shard.lo; hi }; corrupt_skipped = 0; results = Array.init (hi - lo) mk_result }
  in
  let expect_error msg parts =
    match Fabric.Shard.merge prof parts with
    | Ok _ -> Alcotest.failf "merge accepted %s" msg
    | Error e -> Alcotest.(check bool) (msg ^ " produces a typed error") true (e <> "")
  in
  expect_error "a duplicate shard" [ slice 0 0 2; slice 0 0 2 ];
  expect_error "a missing shard" [ slice 0 0 2; slice 2 4 6 ];
  expect_error "a gap" [ slice 0 0 2; slice 1 3 5 ];
  (match Fabric.Shard.merge prof [ slice 1 2 4; slice 0 0 2 ] with
  | Error e -> Alcotest.failf "well-formed out-of-order merge rejected: %s" e
  | Ok (_, merged) -> Alcotest.(check int) "out-of-order slices merge in trace order" 4 (Array.length merged));
  match Fabric.Shard.merge prof [] with
  | Ok (stats, merged) ->
      Alcotest.(check int) "empty merge is the empty campaign" 0 (Array.length merged);
      Alcotest.(check int) "no corrupt skips" 0 stats.Reveal.Campaign.corrupt_skipped
  | Error e -> Alcotest.failf "empty merge should degenerate cleanly: %s" e

(* --- frames --------------------------------------------------------------------- *)

let flip_byte image at =
  let b = Bytes.of_string image in
  Bytes.set b at (Char.chr (Char.code image.[at] lxor 0x01));
  Bytes.to_string b

let qcheck_frame_roundtrip =
  QCheck.Test.make ~count:50 ~name:"wire: frame round-trips arbitrary payloads"
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun payload ->
      with_temp_file (fun path ->
          let oc = open_out_bin path in
          Traceio.Frame.write ~path oc payload;
          close_out oc;
          let ic = open_in_bin path in
          let r = Traceio.Frame.read ~path ic in
          close_in ic;
          r = Some payload))

(* --- orchestrator ------------------------------------------------------------- *)

let with_work_dir f =
  let wd = Fabric.Orchestrator.fresh_work_dir () in
  Fun.protect ~finally:(fun () -> Fabric.Orchestrator.remove_dir wd) (fun () -> f wd)

let test_orchestrator_failure_typing () =
  with_work_dir @@ fun wd ->
  let command ~shard:_ ~attempt:_ ~range:_ ~out:_ ~log:_ = [| "/bin/sh"; "-c"; "exit 3" |] in
  let config = { Fabric.Orchestrator.max_inflight = 2; retries = 1; timeout_s = None; work_dir = wd; command } in
  (match Fabric.Orchestrator.run config ~plan:[| { Fabric.Shard.lo = 0; hi = 1 } |] with
  | Ok _ -> Alcotest.fail "a worker that always exits 3 cannot succeed"
  | Error failures ->
      Alcotest.(check int) "first attempt plus one retry" 2 (List.length failures);
      List.iteri
        (fun i f ->
          Alcotest.(check int) "attempts are numbered" i f.Fabric.Orchestrator.f_attempt;
          Alcotest.(check bool) "status is the typed exit code" true (f.Fabric.Orchestrator.f_status = Fabric.Orchestrator.Exited 3);
          Alcotest.(check bool) "log path recorded" true (contains f.Fabric.Orchestrator.f_log wd))
        failures);
  (* exit 0 without writing the result file is also a typed failure *)
  let config = { config with Fabric.Orchestrator.retries = 0; command = (fun ~shard:_ ~attempt:_ ~range:_ ~out:_ ~log:_ -> [| "/bin/sh"; "-c"; "exit 0" |]) } in
  match Fabric.Orchestrator.run config ~plan:[| { Fabric.Shard.lo = 0; hi = 1 } |] with
  | Ok _ -> Alcotest.fail "a worker that writes no result cannot succeed"
  | Error [ f ] ->
      Alcotest.(check bool) "clean exit, missing file" true (f.Fabric.Orchestrator.f_status = Fabric.Orchestrator.Exited 0);
      Alcotest.(check bool) "reason is non-empty" true (f.Fabric.Orchestrator.f_reason <> "")
  | Error l -> Alcotest.failf "expected exactly one failure, got %d" (List.length l)

let test_orchestrator_empty_ranges () =
  with_work_dir @@ fun wd ->
  (* empty shards are satisfied without ever spawning the (failing) command *)
  let command ~shard:_ ~attempt:_ ~range:_ ~out:_ ~log:_ = [| "/bin/sh"; "-c"; "exit 3" |] in
  let config = { Fabric.Orchestrator.max_inflight = 1; retries = 0; timeout_s = None; work_dir = wd; command } in
  match Fabric.Orchestrator.run config ~plan:[| { Fabric.Shard.lo = 0; hi = 0 }; { Fabric.Shard.lo = 0; hi = 0 } |] with
  | Error _ -> Alcotest.fail "empty ranges must not spawn workers"
  | Ok report ->
      Alcotest.(check int) "one result per plan entry" 2 (Array.length report.Fabric.Orchestrator.results);
      Array.iter
        (fun r -> Alcotest.(check int) "empty result slices" 0 (Array.length r.Fabric.Shard.results))
        report.Fabric.Orchestrator.results;
      Alcotest.(check int) "nothing retried" 0 report.Fabric.Orchestrator.retried

let test_pool_timeout () =
  with_work_dir @@ fun wd ->
  (* a worker that sleeps past its wall-clock budget is killed, charged
     a typed Timed_out failure, and the charge consumes retry budget *)
  let jobs =
    {
      Fabric.Orchestrator.job_count = 2;
      command =
        (fun ~job ~attempt:_ ~out ~log:_ ->
          if job = 0 then [| "/bin/sh"; "-c"; "sleep 30" |]
          else [| "/bin/sh"; "-c"; Printf.sprintf "echo ok > %s" (Filename.quote out) |]);
      out_path = (fun ~job -> Filename.concat wd (Printf.sprintf "out-%d" job));
      log_path = (fun ~job ~attempt -> Filename.concat wd (Printf.sprintf "log-%d-%d" job attempt));
      collect = (fun ~job:_ ~out -> if Sys.file_exists out then Ok () else Error "no result");
    }
  in
  let pool = { Fabric.Orchestrator.max_inflight = 2; retries = 1; timeout_s = Some 0.3; fail_fast = false } in
  let report = Fabric.Orchestrator.run_pool pool jobs in
  Alcotest.(check bool) "a no-fail-fast pool never aborts" false report.Fabric.Orchestrator.aborted;
  (match report.Fabric.Orchestrator.outcomes.(0) with
  | Ok () -> Alcotest.fail "a sleeping worker cannot succeed"
  | Error failures ->
      Alcotest.(check int) "the timeout consumed the retry budget" 2 (List.length failures);
      List.iter
        (fun f ->
          match f.Fabric.Orchestrator.f_status with
          | Fabric.Orchestrator.Timed_out t ->
              Alcotest.(check bool) "the charge records at least the budget" true (t >= 0.3)
          | s -> Alcotest.failf "expected Timed_out, got %s" (Fabric.Orchestrator.status_to_string s))
        failures);
  (match report.Fabric.Orchestrator.outcomes.(1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "the quick job must be unaffected by its neighbour's hang");
  Alcotest.(check int) "one job needed retries" 1 report.Fabric.Orchestrator.pool_retried

(* --- end-to-end: real workers, bit-identical merge --------------------------- *)

let exe = Filename.concat (Filename.concat ".." "bin") "reveal_cli.exe"

let golden_seed = 54398
let golden_n = 64
let golden_traces = 2

(* The single-process baseline, attacked with the *decoded* profile
   cache — exactly what the workers load. *)
let baseline =
  lazy
    (with_temp_file (fun ppath ->
         Reveal.Campaign.save_profile ppath (Lazy.force campaign_profile);
         let prof = Reveal.Campaign.load_profile ppath in
         let device = Reveal.Device.create ~n:golden_n () in
         let rng = Mathkit.Prng.create ~seed:(Int64.of_int golden_seed) () in
         let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
         let source =
           Reveal.Source.device_live_range device ~traces:golden_traces ~lo:0 ~hi:golden_traces ~scope_rng
             ~sampler_rng
         in
         (prof, Reveal.Campaign.run_source prof source)))

let merged_payload results =
  Fabric.Shard.result_payload
    { Fabric.Shard.shard = 0; range = { Fabric.Shard.lo = 0; hi = golden_traces }; corrupt_skipped = 0; results }

let run_workers ~sabotage wd ppath =
  let plan = Fabric.Shard.plan ~traces:golden_traces ~workers:2 in
  let command ~shard ~attempt ~range ~out ~log:_ =
    Array.of_list
      ([
         exe;
         "worker";
         "--seed";
         string_of_int golden_seed;
         "-n";
         string_of_int golden_n;
         "--traces";
         string_of_int golden_traces;
         "--shard-id";
         string_of_int shard;
         "--shard-lo";
         string_of_int range.Fabric.Shard.lo;
         "--shard-hi";
         string_of_int range.Fabric.Shard.hi;
         "--profile";
         ppath;
         "--out";
         out;
       ]
      @ if sabotage && shard = 0 && attempt = 0 then [ "--sabotage" ] else [])
  in
  let config = { Fabric.Orchestrator.max_inflight = 2; retries = 1; timeout_s = None; work_dir = wd; command } in
  Fabric.Orchestrator.run config ~plan

let require_exe () = if not (Sys.file_exists exe) then Alcotest.skip ()

let test_sharded_run_bit_identical () =
  require_exe ();
  let prof, (base_stats, base_results) = Lazy.force baseline in
  with_work_dir @@ fun wd ->
  let ppath = Filename.concat wd "profile.bin" in
  Reveal.Campaign.save_profile ppath prof;
  match run_workers ~sabotage:false wd ppath with
  | Error failures ->
      Alcotest.failf "clean 2-worker run failed: %s"
        (String.concat "; " (List.map Fabric.Orchestrator.describe_failure failures))
  | Ok report -> (
      Alcotest.(check int) "no retries on the clean run" 0 report.Fabric.Orchestrator.retried;
      match Fabric.Shard.merge prof (Array.to_list report.Fabric.Orchestrator.results) with
      | Error e -> Alcotest.failf "merge failed: %s" e
      | Ok (stats, results) ->
          Alcotest.(check bool) "merged stats bit-identical to single process" true (stats = base_stats);
          Alcotest.(check string) "merged results byte-identical to single process" (merged_payload base_results)
            (merged_payload results))

let test_killed_worker_retried_still_identical () =
  require_exe ();
  let prof, (base_stats, base_results) = Lazy.force baseline in
  with_work_dir @@ fun wd ->
  let ppath = Filename.concat wd "profile.bin" in
  Reveal.Campaign.save_profile ppath prof;
  match run_workers ~sabotage:true wd ppath with
  | Error failures ->
      Alcotest.failf "sabotaged run should recover via retry: %s"
        (String.concat "; " (List.map Fabric.Orchestrator.describe_failure failures))
  | Ok report -> (
      Alcotest.(check int) "the killed shard was retried" 1 report.Fabric.Orchestrator.retried;
      Alcotest.(check bool) "the kill left a typed failure record" true
        (List.exists
           (fun f ->
             f.Fabric.Orchestrator.f_shard = 0
             && match f.Fabric.Orchestrator.f_status with Fabric.Orchestrator.Signaled _ -> true | _ -> false)
           report.Fabric.Orchestrator.failures);
      match Fabric.Shard.merge prof (Array.to_list report.Fabric.Orchestrator.results) with
      | Error e -> Alcotest.failf "merge failed after retry: %s" e
      | Ok (stats, results) ->
          Alcotest.(check bool) "stats still bit-identical after the retry" true (stats = base_stats);
          Alcotest.(check string) "results still byte-identical after the retry" (merged_payload base_results)
            (merged_payload results))

(* --- transport --------------------------------------------------------------- *)

let test_transport_parse () =
  (match Fabric.Transport.parse "unix:/tmp/fab.sock" with
  | Ok (Fabric.Transport.Unix_socket p) -> Alcotest.(check string) "unix path" "/tmp/fab.sock" p
  | _ -> Alcotest.fail "unix endpoint did not parse");
  (match Fabric.Transport.parse "tcp:localhost:9000" with
  | Ok (Fabric.Transport.Tcp (h, p)) ->
      Alcotest.(check string) "tcp host" "localhost" h;
      Alcotest.(check int) "tcp port" 9000 p
  | _ -> Alcotest.fail "tcp endpoint did not parse");
  List.iter
    (fun s ->
      match Fabric.Transport.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error e -> Alcotest.(check bool) (s ^ " error is non-empty") true (e <> ""))
    [ ""; "bogus"; "tcp:nohost"; "tcp:host:0"; "tcp:host:70000"; "tcp:host:abc"; "unix:" ];
  List.iter
    (fun ep ->
      Alcotest.(check bool) "to_string round-trips through parse" true
        (Fabric.Transport.parse (Fabric.Transport.to_string ep) = Ok ep))
    [ Fabric.Transport.Unix_socket "/tmp/x.sock"; Fabric.Transport.Tcp ("example.org", 443) ]

let test_transport_connect_retry () =
  with_work_dir @@ fun wd ->
  let path = Filename.concat wd "late.sock" in
  let ep = Fabric.Transport.Unix_socket path in
  (* nobody listening, no retries: the old fail-immediately contract *)
  (match Fabric.Transport.connect ep with
  | _ -> Alcotest.fail "connecting to an absent socket must fail"
  | exception Traceio.Error.Io _ -> ());
  (match Fabric.Transport.connect ~retries:(-1) ep with
  | _ -> Alcotest.fail "negative retries must be rejected"
  | exception Invalid_argument _ -> ());
  (* a listener that shows up late: the bounded backoff rides out the
     serve/connect race that used to need sleeps in scripts *)
  let listener =
    Domain.spawn (fun () ->
        Unix.sleepf 0.25;
        let l = Fabric.Transport.listen ep in
        let c = Fabric.Transport.accept l in
        Fabric.Transport.close_connection c;
        Fabric.Transport.close_listener l)
  in
  let conn = Fabric.Transport.connect ~retries:10 ep in
  Alcotest.(check bool) "peer label carries the endpoint" true (contains conn.Fabric.Transport.peer path);
  Fabric.Transport.close_connection conn;
  Domain.join listener

(* --- telemetry streams -------------------------------------------------------- *)

(* Real obs lines: a logical-clock context with a named source, a few
   heartbeats (the campaign driver's per-batch event) and optional
   trailing chatter — serialized exactly as Sink.stream would hand
   them to the wire. *)
let telemetry_lines ?(source = "shard-0") ?(trailing = 0) beats =
  let sink, drain = Obs.Sink.memory () in
  let obs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~source ~sink () in
  List.iter
    (fun (d, total) ->
      Obs.Ctx.event
        ~attrs:[ ("done", Obs.Json.Int d); ("total", Obs.Json.Int total) ]
        obs Fabric.Telemetry.heartbeat_event)
    beats;
  for _ = 1 to trailing do
    Obs.Ctx.event obs "chatter"
  done;
  Obs.Ctx.close obs;
  List.map Obs.Json.to_string (drain ())

let telemetry_image lines =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let s = Traceio.Wire.create_telemetry_sender ~peer:"test" oc in
      List.iter (Traceio.Wire.telemetry_send s) lines;
      Traceio.Wire.telemetry_finish s;
      close_out oc;
      read_file path)

let receive_telemetry image =
  with_temp_file (fun path ->
      write_file path image;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let r = Traceio.Wire.open_telemetry_receiver ~peer:"test" ic in
          let rec loop acc skips =
            match Traceio.Wire.telemetry_recv r with
            | `Line l -> loop (l :: acc) skips
            | `Skipped _ -> loop acc (skips + 1)
            | `End_of_stream -> (List.rev acc, skips)
          in
          loop [] 0))

let drain_telemetry ?on_heartbeat image =
  with_temp_file (fun path ->
      write_file path image;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Fabric.Telemetry.drain ?on_heartbeat ~peer:"peer" ic))

let test_telemetry_roundtrip () =
  let lines = telemetry_lines [ (32, 128); (64, 128) ] in
  let received, skips = receive_telemetry (telemetry_image lines) in
  Alcotest.(check int) "no skips on a clean stream" 0 skips;
  Alcotest.(check (list string)) "every line arrives verbatim, in order" lines received;
  (* sender contract: empty lines and finished senders are caller bugs *)
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let s = Traceio.Wire.create_telemetry_sender ~peer:"test" oc in
      Alcotest.check_raises "empty line rejected"
        (Invalid_argument "Wire.telemetry_send: empty line") (fun () -> Traceio.Wire.telemetry_send s "");
      Traceio.Wire.telemetry_send s "{}";
      Alcotest.(check int) "count tracks sends" 1 (Traceio.Wire.telemetry_count s);
      Traceio.Wire.telemetry_finish s;
      Traceio.Wire.telemetry_finish s;
      (* idempotent *)
      Alcotest.(check bool) "send after finish rejected" true
        (match Traceio.Wire.telemetry_send s "{}" with
        | () -> false
        | exception Invalid_argument _ -> true);
      close_out oc)

(* Telemetry frames start right after the preamble (magic 8 + version
   2): there is no header frame, the first 'T' frame sits at offset 10. *)
let first_telemetry_frame_offset = 10

(* The telemetry preamble followed by raw frames — e.g. the 'H'
   header and 'R' record frames of a trace-archive stream. *)
let framed_image frames =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.sub (telemetry_image []) 0 first_telemetry_frame_offset);
      List.iter (Traceio.Frame.write ~path oc) frames;
      close_out oc;
      read_file path)

let test_telemetry_corruption_discipline () =
  let lines = telemetry_lines [ (32, 128) ] in
  let image = telemetry_image lines in
  (* flip a byte inside the first frame's JSON payload (past len + tag):
     that slot is skipped, the rest of the stream survives *)
  let mutated = flip_byte image (first_telemetry_frame_offset + 4 + 2) in
  let received, skips = receive_telemetry mutated in
  Alcotest.(check int) "damaged slot skipped" 1 skips;
  Alcotest.(check (list string)) "survivors arrive verbatim" (List.tl lines) received;
  (* cutting the end frame off must be loud, not a clean end *)
  let cut = String.sub image 0 (String.length image - 13) in
  (match receive_telemetry cut with
  | _ -> Alcotest.fail "truncated telemetry accepted as complete"
  | exception Traceio.Error.Corrupt msg ->
      Alcotest.(check bool) "error names the mid-stream close" true (contains msg "closed mid-stream"));
  (* preamble damage is structural, and an archive stream is not telemetry *)
  Alcotest.(check bool) "bad magic rejected" true (rejected (fun () -> receive_telemetry (flip_byte image 0)));
  Alcotest.(check bool) "bad version rejected" true (rejected (fun () -> receive_telemetry (flip_byte image 8)));
  List.iter
    (fun frame ->
      Alcotest.(check bool) "archive stream on a telemetry endpoint rejected" true
        (rejected (fun () -> receive_telemetry (framed_image [ frame ]))))
    [ "Hheader"; "Rrecord" ]

let qcheck_telemetry =
  let fixture = lazy (let lines = telemetry_lines [ (16, 64); (32, 64) ] ~trailing:2 in (lines, telemetry_image lines)) in
  QCheck.Test.make ~count:60 ~name:"telemetry: single bit flip is never silently accepted"
    QCheck.(float_range 0.0 1.0)
    (fun frac ->
      let lines, image = Lazy.force fixture in
      let bit = int_of_float (frac *. float_of_int ((String.length image * 8) - 1)) in
      let mutated = Bytes.of_string image in
      Bytes.set mutated (bit / 8) (Char.chr (Char.code image.[bit / 8] lxor (1 lsl (bit mod 8))));
      match receive_telemetry (Bytes.to_string mutated) with
      | exception Traceio.Error.Corrupt _ -> true
      | exception Traceio.Error.Io _ -> true
      | received, skips -> skips > 0 || received <> lines)

let test_telemetry_drain () =
  let beats = ref [] in
  let on_heartbeat ~source ~done_ ~total ~t = beats := (source, done_, total, t) :: !beats in
  let lines = telemetry_lines ~source:"shard-3" [ (32, 128); (64, 128) ] in
  let r = drain_telemetry ~on_heartbeat (telemetry_image lines) in
  Alcotest.(check string) "name is the start record's source" "shard-3" r.Fabric.Telemetry.r_name;
  Alcotest.(check (option string)) "source recorded" (Some "shard-3") r.Fabric.Telemetry.r_source;
  Alcotest.(check int) "heartbeats counted" 2 r.Fabric.Telemetry.r_heartbeats;
  Alcotest.(check int) "progress is the last heartbeat's" 64 r.Fabric.Telemetry.r_done;
  Alcotest.(check (option int)) "expected total known" (Some 128) r.Fabric.Telemetry.r_total;
  Alcotest.(check int) "nothing skipped" 0 r.Fabric.Telemetry.r_skipped;
  Alcotest.(check bool) "stream complete" true (r.Fabric.Telemetry.r_truncated = None);
  (* logical clock: start=1, heartbeats tick 2 and 3 *)
  Alcotest.(check (option (float 1e-9))) "first heartbeat time" (Some 2.0) r.Fabric.Telemetry.r_first_hb;
  Alcotest.(check (option (float 1e-9))) "last heartbeat time" (Some 3.0) r.Fabric.Telemetry.r_last_hb;
  Alcotest.(check int) "summary folded every line" (List.length lines) r.Fabric.Telemetry.r_summary.Obs.Summary.records;
  Alcotest.(check bool) "live feed fired per heartbeat, in order" true
    (List.rev !beats = [ ("shard-3", 32, Some 128, 2.0); ("shard-3", 64, Some 128, 3.0) ]);
  (* a worker cut mid-stream is a finding: partial summary, truncation named *)
  let image = telemetry_image lines in
  let cut = String.sub image 0 (String.length image - 13) in
  let r = drain_telemetry cut in
  Alcotest.(check bool) "truncation recorded, not raised" true
    (match r.Fabric.Telemetry.r_truncated with Some m -> contains m "closed mid-stream" | None -> false);
  Alcotest.(check int) "partial progress retained" 64 r.Fabric.Telemetry.r_done

let test_telemetry_merge_reports () =
  Alcotest.(check bool) "empty fleet merges to nothing" true (Fabric.Telemetry.merge_reports [] = None);
  let report source = drain_telemetry (telemetry_image (telemetry_lines ~source [ (8, 16) ])) in
  let a = report "shard-0" and b = report "shard-1" in
  (* merge folds in sorted name order regardless of arrival order *)
  let expected = Obs.Summary.merge a.Fabric.Telemetry.r_summary b.Fabric.Telemetry.r_summary in
  (match Fabric.Telemetry.merge_reports [ b; a ] with
  | None -> Alcotest.fail "non-empty fleet must merge"
  | Some m ->
      Alcotest.(check int) "records sum across the fleet" expected.Obs.Summary.records m.Obs.Summary.records;
      Alcotest.(check string) "merge order is name order, as obs merge"
        (Obs.Summary.render expected) (Obs.Summary.render m))

let test_stragglers_and_missed_heartbeats () =
  let s = Fabric.Telemetry.stragglers in
  Alcotest.(check (list string)) "slow worker flagged" [ "c" ]
    (s [ ("a", 100, 10.0); ("b", 100, 10.0); ("c", 10, 10.0) ]);
  Alcotest.(check (list string)) "uniform fleet has no stragglers" []
    (s [ ("a", 50, 5.0); ("b", 50, 5.0); ("c", 50, 5.0) ]);
  Alcotest.(check (list string)) "a fleet of one has no peers to lag" [] (s [ ("only", 1, 100.0) ]);
  Alcotest.(check (list string)) "zero-elapsed progress is infinitely fast, not a straggler" [ "c" ]
    (s [ ("a", 5, 0.0); ("b", 100, 10.0); ("c", 10, 10.0) ]);
  (* missed heartbeats, over real drained streams *)
  let drained ?source ?trailing beats = drain_telemetry (telemetry_image (telemetry_lines ?source ?trailing beats)) in
  Alcotest.(check bool) "a stream with no heartbeat at all is flagged" true
    (Fabric.Telemetry.missed_heartbeats (drained []));
  Alcotest.(check bool) "a stream ending right after its last heartbeat is healthy" false
    (Fabric.Telemetry.missed_heartbeats (drained [ (1, 4); (2, 4); (3, 4) ]));
  Alcotest.(check bool) "a stream chattering far past its last heartbeat is flagged" true
    (Fabric.Telemetry.missed_heartbeats (drained ~trailing:5 [ (1, 4); (2, 4) ]))

(* --- monitor replay: bit-identical to the post-hoc merge ---------------------- *)

let sh cmd = Sys.command (cmd ^ " 2> /dev/null")

(* A real worker streams telemetry to a file (the tee of its JSONL
   sink); [monitor FILE] replaying that stream must render exactly the
   bytes [obs merge] produces from the worker's obs file.  Logical
   clock, fixed seed: the whole comparison is deterministic. *)
let test_monitor_replay_matches_merge () =
  require_exe ();
  let prof, _ = Lazy.force baseline in
  with_work_dir @@ fun wd ->
  let ppath = Filename.concat wd "profile.bin" in
  Reveal.Campaign.save_profile ppath prof;
  let obs_file = Filename.concat wd "shard-0.jsonl" in
  let stream_file = Filename.concat wd "shard-0.tele" in
  let worker =
    Printf.sprintf
      "%s worker --seed %d -n %d --traces %d --shard-id 0 --shard-lo 0 --shard-hi %d --profile %s --out %s \
       --obs-out %s --obs-stream %s --obs-clock logical"
      (Filename.quote exe) golden_seed golden_n golden_traces golden_traces (Filename.quote ppath)
      (Filename.quote (Filename.concat wd "out.bin"))
      (Filename.quote obs_file) (Filename.quote stream_file)
  in
  Alcotest.(check int) "worker runs clean" 0 (sh worker);
  let live = Filename.concat wd "live.txt" and merged = Filename.concat wd "merged.txt" in
  Alcotest.(check int) "monitor replays the stream" 0
    (sh (Printf.sprintf "%s monitor %s > %s" (Filename.quote exe) (Filename.quote stream_file) (Filename.quote live)));
  Alcotest.(check int) "obs merge reads the worker file" 0
    (sh (Printf.sprintf "%s obs merge %s > %s" (Filename.quote exe) (Filename.quote obs_file) (Filename.quote merged)));
  Alcotest.(check string) "monitor replay is bit-identical to obs merge" (read_file merged) (read_file live);
  (* and the replay is deterministic: a second pass renders the same bytes *)
  let live2 = Filename.concat wd "live2.txt" in
  Alcotest.(check int) "second replay runs" 0
    (sh (Printf.sprintf "%s monitor %s > %s" (Filename.quote exe) (Filename.quote stream_file) (Filename.quote live2)));
  Alcotest.(check string) "replay is deterministic" (read_file live) (read_file live2)

let suite =
  [
    ("shard plan: directed cases", `Quick, test_plan_directed);
    QCheck_alcotest.to_alcotest qcheck_plan;
    ("shard result codec round-trip", `Quick, test_shard_codec_roundtrip);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_shard_codec
  @ [
      ("shard merge: typed errors and ordering", `Quick, test_merge_checks);
      QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
      ("orchestrator: typed failures and retry budget", `Quick, test_orchestrator_failure_typing);
      ("orchestrator: empty ranges spawn nothing", `Quick, test_orchestrator_empty_ranges);
      ("orchestrator: hung worker is killed and charged a timeout", `Quick, test_pool_timeout);
      ("sharded campaign is bit-identical to single process", `Quick, test_sharded_run_bit_identical);
      ("killed worker retried, merge still identical", `Quick, test_killed_worker_retried_still_identical);
      ("transport endpoint parsing", `Quick, test_transport_parse);
      ("transport connect: bounded retry rides out a late listener", `Quick, test_transport_connect_retry);
      ("telemetry: clean stream round-trips", `Quick, test_telemetry_roundtrip);
      ("telemetry: corruption discipline", `Quick, test_telemetry_corruption_discipline);
      QCheck_alcotest.to_alcotest qcheck_telemetry;
      ("telemetry drain: summary, progress, truncation", `Quick, test_telemetry_drain);
      ("telemetry merge: name order, as obs merge", `Quick, test_telemetry_merge_reports);
      ("telemetry: stragglers and missed heartbeats", `Quick, test_stragglers_and_missed_heartbeats);
      ("monitor replay bit-identical to obs merge", `Quick, test_monitor_replay_matches_merge);
    ]
