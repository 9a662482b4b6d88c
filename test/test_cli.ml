(* Satellite: reveal_cli's exit-code contract, exercised against the real
   binary.  0 = success, 1 = attack/verification failure, 2 = usage error
   (bad arguments, impossible configuration), 3 = I/O error or corrupt
   input.  Scripts depend on these; see the header of bin/reveal_cli.ml. *)

(* dune runs the test in its build directory, with the binary declared as a
   dep in test/dune so it is always built first. *)
let exe = Filename.concat (Filename.concat ".." "bin") "reveal_cli.exe"

let run args =
  Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" (Filename.quote exe) args)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let with_tmp f =
  let path = Filename.temp_file "reveal_cli_test" ".rvt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_usage_errors_exit_2 () =
  Alcotest.(check int) "unknown subcommand" 2 (run "no-such-subcommand");
  Alcotest.(check int) "unknown flag" 2 (run "record --no-such-flag");
  (* impossible configuration: profiling needs every value twice per run,
     so a 16-coefficient device cannot host the 29-value profile set *)
  Alcotest.(check int) "device too small to profile" 2 (run "attack --seed 7 -n 16");
  Alcotest.(check int) "profile: device too small" 2 (run "profile -n 16");
  Alcotest.(check int) "report: device too small" 2 (run "report table1 -n 16");
  Alcotest.(check int) "disasm: empty firmware" 2 (run "disasm -n 0")

let test_missing_archive_exits_3 () =
  Alcotest.(check int) "inspect missing file" 3 (run "inspect /nonexistent/path.rvt");
  Alcotest.(check int) "replay missing file" 3 (run "replay-attack /nonexistent/path.rvt");
  Alcotest.(check int) "trace: unwritable csv" 3 (run "trace -n 4 --csv /nonexistent/dir/x.csv")

let stomp_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_record_inspect_roundtrip_and_corruption () =
  with_tmp (fun path ->
      Alcotest.(check int) "record succeeds" 0
        (run (Printf.sprintf "record --seed 7 -n 64 --traces 1 -o %s" (Filename.quote path)));
      Alcotest.(check int) "inspect succeeds" 0 (run (Printf.sprintf "inspect %s" (Filename.quote path)));
      (* flip a magic byte: the reader must refuse the file, not misparse it *)
      stomp_byte path 0;
      Alcotest.(check int) "corrupt archive" 3 (run (Printf.sprintf "inspect %s" (Filename.quote path))))

(* A damaged profile cache is corrupt input like a damaged archive: exit
   3, and the message names the file. *)
let test_damaged_profile_cache_exits_3 () =
  let dir = Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_cli_cache" () in
  Fun.protect
    ~finally:(fun () -> Fabric.Orchestrator.remove_dir dir)
    (fun () ->
      let path name = Filename.concat dir name in
      Alcotest.(check int) "profile succeeds" 0
        (run (Printf.sprintf "profile --seed 42 -n 64 --per-value 24 -o %s" (Filename.quote (path "good.bin"))));
      let good = read_file (path "good.bin") in
      let damaged =
        [
          ("bad-magic.bin", "NOTAPROF" ^ String.sub good 8 (String.length good - 8));
          ("future.bin", String.sub good 0 8 ^ "\004\000" ^ String.sub good 10 (String.length good - 10));
          ("trailing.bin", good ^ "\000");
        ]
      in
      List.iter
        (fun (name, image) ->
          let oc = open_out_bin (path name) in
          output_string oc image;
          close_out oc;
          let err = path "stderr.txt" in
          let code =
            Sys.command
              (Printf.sprintf "%s attack --seed 5 -n 64 --profile %s > /dev/null 2> %s" (Filename.quote exe)
                 (Filename.quote (path name)) (Filename.quote err))
          in
          Alcotest.(check int) (name ^ " exits 3") 3 code;
          Alcotest.(check bool) (name ^ " is named") true (contains ~affix:(path name) (read_file err)))
        damaged)

(* The flag check runs before the batch: no trial is spawned. *)
let test_fuzz_update_known_needs_known () =
  let dir = Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_cli_fuzz" () in
  Fun.protect
    ~finally:(fun () -> Fabric.Orchestrator.remove_dir dir)
    (fun () ->
      Alcotest.(check int) "usage error" 2
        (run (Printf.sprintf "fuzz --trials 1 --workers 1 --update-known --work-dir %s" (Filename.quote dir)));
      Alcotest.(check bool) "no trial ran" false (Sys.file_exists (Filename.concat dir "trial-0")))

(* --- transcript golden ----------------------------------------------------- *)

(* Small, fast invocations covering every subcommand whose output does
   not embed the executable path (fuzz and reduce print repro lines
   that do).  They run in order in one fresh directory, so files an
   early step writes (the archives, the profile cache, the obs trace)
   feed the later steps and every printed path is relative.  The obs
   trace comes from a trial, which attacks on one domain: a logical
   clock read from several domains would tick in scheduling order. *)
let transcript_invocations =
  [
    "disasm";
    "disasm --variant v36 -n 2 --json";
    "trace -n 3";
    "trace -n 8 --json";
    "estimate";
    "estimate --sign-only --json";
    "record --seed 5 -n 64 --traces 1";
    "record --seed 6 -n 64 --traces 2 -o two.rvt --json";
    "inspect campaign.rvt --records";
    "inspect two.rvt --records --json";
    "profile --seed 42 -n 64 --per-value 24";
    "attack --seed 5 -n 64 --profile reveal_profile.bin -v";
    "attack --seed 5 -n 64 --per-value 24 --json";
    "replay-attack campaign.rvt --profile reveal_profile.bin -v";
    "replay-attack two.rvt --profile reveal_profile.bin --json";
    "replay-attack two.rvt --per-value 24 --min-values 0.99";
    "lint --variant v32 -n 8";
    "lint --variant v36 -n 8 --json";
    "lint --variant cdt -n 8 --check";
    "report --list";
    "report signs -n 64 --per-value 24 --traces 1";
    "report nope";
    "report";
    "trial --variant v32 --seed 123 --segmenter strict --traces 1 --per-value 24";
    "trial --variant shuffled --intensity 0.75 --seed 9 --gate aggressive --traces 1 --per-value 24 --json";
    "trial --variant v36 --seed 7 --traces 1 --per-value 24 --obs-out run.jsonl --obs-clock logical";
    "obs summarize run.jsonl";
    "obs merge run.jsonl --json";
    "obs export run.jsonl";
    "inspect missing.rvt";
    "replay-attack missing.rvt --profile reveal_profile.bin";
    "attack --profile missing.bin";
    "obs summarize missing.jsonl";
    "record --no-such-flag";
    "no-such-subcommand";
  ]

(* stdout of each invocation, then its exit code; stderr is dropped *)
let transcript () =
  let abs_exe = Filename.concat (Sys.getcwd ()) exe in
  let dir = Fabric.Orchestrator.fresh_work_dir ~prefix:"reveal_cli_transcript" () in
  let out = Filename.temp_file "reveal_cli_transcript" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Fabric.Orchestrator.remove_dir dir;
      try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let b = Buffer.create 65536 in
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "cd %s && %s %s > %s 2> /dev/null" (Filename.quote dir) (Filename.quote abs_exe) args
                 (Filename.quote out))
          in
          Printf.bprintf b "$ reveal %s\n%s[exit %d]\n" args (read_file out) code)
        transcript_invocations;
      Buffer.contents b)

let test_transcript_golden () =
  Alcotest.(check string) "stdout and exit codes are bit-identical to the golden"
    (read_file "golden/cli_transcript.txt") (transcript ())

let cases =
  [
    ("cli: usage errors exit 2", test_usage_errors_exit_2);
    ("cli: missing archive exits 3", test_missing_archive_exits_3);
    ("cli: record/inspect ok, corrupt exits 3", test_record_inspect_roundtrip_and_corruption);
    ("cli: damaged profile cache exits 3", test_damaged_profile_cache_exits_3);
    ("cli: fuzz --update-known without --known spawns nothing", test_fuzz_update_known_needs_known);
    ("cli: transcript matches the golden", test_transcript_golden);
  ]

let suite =
  if Sys.file_exists exe then
    List.map (fun (name, f) -> Alcotest.test_case name `Quick f) cases
  else
    (* e.g. running the test module outside the dune sandbox *)
    [ Alcotest.test_case "cli: binary not built, skipped" `Quick (fun () -> ()) ]
