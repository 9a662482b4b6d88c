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
   cache. *)
let test_payload_bytes_pinned () =
  let payload = Reveal.Profile_store.profile_payload (Lazy.force profile) in
  Alcotest.(check int) "payload length" 9276 (String.length payload);
  Alcotest.(check int) "payload CRC-32" 0x9a20d07b (Traceio.Crc32.digest payload)

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
         rejected (fun () -> Reveal.Profile_store.load path)))

let suite =
  [
    ("payload round-trip", `Quick, test_payload_roundtrip);
    ("payload bytes pinned (v3)", `Quick, test_payload_bytes_pinned);
    ("file round-trip", `Quick, test_file_roundtrip);
    ("stale and mismatched versions rejected", `Quick, test_stale_and_mismatched_versions);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
