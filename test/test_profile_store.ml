(* Profile cache v3: the payload codec round-trips exactly, and no
   single-bit corruption, truncation or extension of a cache file is
   ever loaded silently — the CRC-framed traceio container must turn
   every damage pattern into a loud [Traceio.Error.Corrupt]. *)

let profile =
  lazy
    (let rng = Mathkit.Prng.create ~seed:0x9E3779B9L () in
     let device = Reveal.Device.create ~n:64 () in
     Reveal.Campaign.profile ~per_value:80 device rng)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

let with_temp_file f =
  let path = Filename.temp_file "reveal_pstore" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let rejected f =
  match f () with
  | _ -> false
  | exception Traceio.Error.Corrupt _ -> true

(* --- round trips ------------------------------------------------------------ *)

let test_payload_roundtrip () =
  let prof = Lazy.force profile in
  let payload = Reveal.Profile_store.profile_payload prof in
  let decoded = Reveal.Profile_store.profile_of_payload ~path:"<mem>" payload in
  Alcotest.(check string) "decode/encode is the identity on the payload" payload
    (Reveal.Profile_store.profile_payload decoded);
  Alcotest.(check int) "window length survives" prof.Reveal.Campaign.window_length
    decoded.Reveal.Campaign.window_length;
  Alcotest.(check (array int)) "values survive" prof.Reveal.Campaign.values decoded.Reveal.Campaign.values;
  Alcotest.(check (float 0.0)) "sign fit floor survives" prof.Reveal.Campaign.sign_fit_floor
    decoded.Reveal.Campaign.sign_fit_floor

(* The v3 bytes themselves, captured before the inverse covariance
   became a flat matrix: a round trip alone would still pass if the
   rows were written transposed, which would misread every existing
   cache.  The fit floors (payload bytes 52-67) are calibrated through
   the template scoring, so a change to its arithmetic moves their
   last bits, and this CRC, while every other byte stays. *)
let test_payload_bytes_pinned () =
  let payload = Reveal.Profile_store.profile_payload (Lazy.force profile) in
  Alcotest.(check int) "payload length" 9276 (String.length payload);
  Alcotest.(check int) "payload CRC-32" 0xba77edd2 (Traceio.Crc32.digest payload)

let test_file_roundtrip () =
  let prof = Lazy.force profile in
  with_temp_file (fun path ->
      Reveal.Profile_store.save path prof;
      let loaded = Reveal.Profile_store.load path in
      Alcotest.(check string) "save/load preserves the payload bytes"
        (Reveal.Profile_store.profile_payload prof)
        (Reveal.Profile_store.profile_payload loaded))

(* --- corruption rejection ---------------------------------------------------- *)

let qcheck_cases =
  let prof = lazy (Lazy.force profile) in
  let payload = lazy (Reveal.Profile_store.profile_payload (Lazy.force prof)) in
  let file_image =
    lazy
      (with_temp_file (fun path ->
           Reveal.Profile_store.save path (Lazy.force prof);
           read_file path))
  in
  [
    QCheck.Test.make ~count:50 ~name:"truncated payload rejected"
      QCheck.(float_range 0.0 1.0)
      (fun frac ->
        let payload = Lazy.force payload in
        let keep = int_of_float (frac *. float_of_int (String.length payload - 1)) in
        rejected (fun () -> Reveal.Profile_store.profile_of_payload ~path:"<mem>" (String.sub payload 0 keep)));
    QCheck.Test.make ~count:50 ~name:"single bit flip in cache file rejected"
      QCheck.(float_range 0.0 1.0)
      (fun frac ->
        let image = Lazy.force file_image in
        let bit = int_of_float (frac *. float_of_int ((String.length image * 8) - 1)) in
        let mutated = Bytes.of_string image in
        Bytes.set mutated (bit / 8) (Char.chr (Char.code image.[bit / 8] lxor (1 lsl (bit mod 8))));
        with_temp_file (fun path ->
            let oc = open_out_bin path in
            output_bytes oc mutated;
            close_out oc;
            rejected (fun () -> Reveal.Profile_store.load path)));
    QCheck.Test.make ~count:20 ~name:"truncated cache file rejected"
      QCheck.(float_range 0.0 1.0)
      (fun frac ->
        let image = Lazy.force file_image in
        let keep = int_of_float (frac *. float_of_int (String.length image - 1)) in
        with_temp_file (fun path ->
            let oc = open_out_bin path in
            output_string oc (String.sub image 0 keep);
            close_out oc;
            rejected (fun () -> Reveal.Profile_store.load path)));
  ]

let test_stale_and_mismatched_versions () =
  let image = with_temp_file (fun path ->
      Reveal.Profile_store.save path (Lazy.force profile);
      read_file path)
  in
  let magic_len = String.length Reveal.Constants.profile_magic in
  let with_prefix prefix =
    with_temp_file (fun path ->
        let oc = open_out_bin path in
        output_string oc prefix;
        output_string oc (String.sub image (String.length prefix) (String.length image - String.length prefix));
        close_out oc;
        rejected (fun () -> Reveal.Profile_store.load path))
  in
  (* the first 8 bytes of the Marshal-era "REVEAL-PROFILE-v1\n" *)
  Alcotest.(check bool) "legacy v1 magic rejected" true (with_prefix "REVEAL-P");
  Alcotest.(check bool) "foreign magic rejected" true (with_prefix "NOTAPROF");
  let bumped = Bytes.of_string image in
  Bytes.set bumped magic_len (Char.chr (Reveal.Constants.profile_version + 1));
  Alcotest.(check bool) "future version rejected" true
    (with_temp_file (fun path ->
         let oc = open_out_bin path in
         output_bytes oc bumped;
         close_out oc;
         rejected (fun () -> Reveal.Profile_store.load path)));
  Alcotest.(check bool) "trailing bytes rejected" true
    (with_temp_file (fun path ->
         let oc = open_out_bin path in
         output_string oc image;
         output_string oc "\000";
         close_out oc;
         rejected (fun () -> Reveal.Profile_store.load path)));
  (* payload byte 0 is the segmentation-threshold tag: 2 (Absolute) on
     every profile the code builds; 1 was a percentile rule that no
     code ever constructed, and is now an unknown tag *)
  let payload = Bytes.of_string (Reveal.Profile_store.profile_payload (Lazy.force profile)) in
  Alcotest.(check int) "threshold tag" 2 (Bytes.get_uint8 payload 0);
  Bytes.set_uint8 payload 0 1;
  match Reveal.Profile_store.profile_of_payload ~path:"<mem>" (Bytes.to_string payload) with
  | _ -> Alcotest.fail "threshold tag 1 loaded"
  | exception Traceio.Error.Corrupt msg ->
      Alcotest.(check string) "threshold tag 1 rejected" "<mem>: unknown segmentation-threshold tag 1" msg

(* A payload whose CRC would hold but whose parts cannot go together:
   the constructors that derive the scoring fields on load reject it,
   and the loader reports a corrupt cache naming the failed check. *)
let test_inconsistent_parts_rejected () =
  let prof = Lazy.force profile in
  let payload = Reveal.Profile_store.profile_payload prof in
  let floats xs =
    let b = Buffer.create 256 in
    Traceio.Codec.put_floats b xs;
    Buffer.contents b
  in
  (* the payload with the one encoding of [row] replaced by that of
     [row] less its last entry *)
  let shortened row =
    let old = floats row and by = floats (Array.sub row 0 (Array.length row - 1)) in
    let n = String.length old in
    match List.filter (fun i -> String.sub payload i n = old) (List.init (String.length payload - n + 1) Fun.id) with
    | [ i ] -> String.sub payload 0 i ^ by ^ String.sub payload (i + n) (String.length payload - i - n)
    | hits -> Alcotest.failf "row encoded %d times in the payload" (List.length hits)
  in
  let expect what msg damaged =
    match Reveal.Profile_store.profile_of_payload ~path:"<mem>" damaged with
    | _ -> Alcotest.failf "%s loaded" what
    | exception Traceio.Error.Corrupt m -> Alcotest.(check string) what msg m
  in
  let a = prof.Reveal.Campaign.attack in
  expect "prior row one entry short" "<mem>: Template.log_prior: prior length mismatch"
    (shortened a.Sca.Attack.neg_priors);
  expect "class mean one entry short" "<mem>: Template.make: a class mean does not match the covariance dimension"
    (shortened a.Sca.Attack.sign_template.Sca.Template.means.(0))

let suite =
  [
    ("payload round-trip", `Quick, test_payload_roundtrip);
    ("payload bytes pinned (v3)", `Quick, test_payload_bytes_pinned);
    ("file round-trip", `Quick, test_file_roundtrip);
    ("stale and mismatched versions rejected", `Quick, test_stale_and_mismatched_versions);
    ("inconsistent cache parts rejected as corrupt", `Quick, test_inconsistent_parts_rejected);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
