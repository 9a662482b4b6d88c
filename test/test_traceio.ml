(* traceio: binary archive round trips, corruption detection, and the
   record/replay pipeline.  The hard claims: reads reproduce exactly
   the bits written (samples, labels), any damaged byte is
   rejected by a checksum instead of misread, and a replayed campaign
   recovers exactly the coefficients the live attack recovers. *)

let rng () = Mathkit.Prng.create ~seed:77L ()

let with_tmp name f =
  let path = Filename.temp_file "reveal_traceio" name in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let float_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* --- primitives ---------------------------------------------------------- *)

let test_crc32_vectors () =
  Alcotest.(check int) "check vector" 0xCBF43926 (Traceio.Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Traceio.Crc32.digest "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let piecewise = Traceio.Crc32.update (Traceio.Crc32.update 0 s 0 20) s 20 (String.length s - 20) in
  Alcotest.(check int) "incremental = one-shot" (Traceio.Crc32.digest s) piecewise

(* Every length 0..64 at every start offset 0..7 of one fixed random
   string: no full word, every tail length and several words, each
   from every alignment. *)
let test_crc32_matches_bytewise () =
  let g = Mathkit.Prng.create ~seed:0x5EED32L () in
  let s = String.init 72 (fun _ -> Char.chr (Mathkit.Prng.int g 256)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "update 0 ~pos:%d ~len:%d" pos len)
        (Crc32_oracle.update 0 s pos len)
        (Traceio.Crc32.update 0 s pos len)
    done
  done

let prop_crc32_pieces =
  QCheck.Test.make ~count:300 ~name:"crc32: update fed in random pieces = byte-wise digest"
    QCheck.(pair (string_of_size Gen.(int_bound 300)) (small_list small_nat))
    (fun (s, cuts) ->
      let len = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
      let crc, last =
        List.fold_left (fun (crc, pos) cut -> (Traceio.Crc32.update crc s pos (cut - pos), cut)) (0, 0) cuts
      in
      Traceio.Crc32.update crc s last (len - last) = Crc32_oracle.update 0 s 0 len)

let test_varint_roundtrip () =
  let cases =
    [ 0L; 1L; 127L; 128L; 300L; 0xFFFFL; 0x7FFFFFFFL; Int64.max_int; -1L; Int64.min_int; -300L ]
  in
  let b = Buffer.create 64 in
  List.iter (fun v -> Traceio.Binio.put_varint b v) cases;
  List.iter (fun v -> Traceio.Binio.put_svarint b v) cases;
  let c = Traceio.Binio.cursor (Buffer.contents b) in
  List.iter (fun v -> Alcotest.(check int64) "varint" v (Traceio.Binio.get_varint c)) cases;
  List.iter (fun v -> Alcotest.(check int64) "svarint" v (Traceio.Binio.get_svarint c)) cases;
  Alcotest.(check bool) "consumed all" true (Traceio.Binio.at_end c)

let test_binio_truncation_detected () =
  let b = Buffer.create 16 in
  Traceio.Binio.put_u64 b 0x1122334455667788L;
  let full = Buffer.contents b in
  let c = Traceio.Binio.cursor (String.sub full 0 5) in
  Alcotest.check_raises "truncated u64"
    (Traceio.Error.Corrupt "buffer: truncated record (need 8 more bytes at offset 0 of 5)") (fun () ->
      ignore (Traceio.Binio.get_u64 c))

let prop_floats_roundtrip =
  QCheck.Test.make ~count:200 ~name:"codec floats roundtrip bit-identically"
    QCheck.(array float)
    (fun xs ->
      let b = Buffer.create 256 in
      Traceio.Codec.put_floats b xs;
      Traceio.Codec.put_plane b xs;
      let c = Traceio.Binio.cursor (Buffer.contents b) in
      let ys = Traceio.Codec.get_floats c in
      let plane = Mathkit.Fvec.to_array (Traceio.Codec.get_plane_into c ~into:Mathkit.Fvec.create) in
      Traceio.Binio.at_end c && float_bits_equal xs ys && float_bits_equal xs plane)

let prop_ints_roundtrip =
  QCheck.Test.make ~count:200 ~name:"codec int streams roundtrip"
    QCheck.(array int)
    (fun xs ->
      let b = Buffer.create 256 in
      Traceio.Codec.put_ints b xs;
      let c = Traceio.Binio.cursor (Buffer.contents b) in
      let plain = Traceio.Codec.get_ints c in
      Traceio.Binio.at_end c && plain = xs)

(* --- archives ------------------------------------------------------------ *)

let sample_runs device count =
  let g = rng () in
  Array.init count (fun _ -> Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g)

let write_archive path device runs =
  let w = Reveal.Device.open_recorder device ~path ~seed:123L in
  Array.iter (fun run -> Reveal.Device.record_run w run) runs;
  Traceio.Archive.close_writer w

let test_archive_roundtrip () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "roundtrip.rvt" (fun path ->
      write_archive path device runs;
      let h = Traceio.Archive.with_reader path Traceio.Archive.header in
      Alcotest.(check int) "trace count" 3 h.Traceio.Archive.trace_count;
      Alcotest.(check int) "n" 8 h.Traceio.Archive.n;
      Alcotest.(check int64) "seed" 123L h.Traceio.Archive.seed;
      let records = List.rev (Traceio.Archive.fold path (fun acc r -> r :: acc) []) in
      Alcotest.(check int) "records read" 3 (List.length records);
      List.iteri
        (fun i (r : Traceio.Archive.record) ->
          let live = runs.(i) in
          Alcotest.(check int) "index" i r.Traceio.Archive.index;
          Alcotest.(check bool) "noises" true (live.Reveal.Device.noises = r.Traceio.Archive.noises);
          Alcotest.(check bool) "samples bit-identical" true
            (float_bits_equal live.Reveal.Device.trace.Power.Ptrace.samples
               (Mathkit.Fvec.to_array r.Traceio.Archive.samples)))
        records)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_corrupt name f =
  match f () with
  | exception Traceio.Error.Corrupt _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: damaged archive was accepted" name

let drain path = Traceio.Archive.fold path (fun () _ -> ()) ()

(* The tolerant read every replay runs: each record pulled through
   [Traceio.Source] and decoded under its default policy, as [Ok] of
   its index or [Error] of the reason it was skipped, in archive
   order. *)
let tolerant_read path =
  let src = Traceio.Source.of_archive path in
  Fun.protect
    ~finally:(fun () -> Traceio.Source.close src)
    (fun () ->
      let rec go acc =
        match Traceio.Source.next src with
        | `End_of_archive -> List.rev acc
        | `Skipped reason -> go (Error reason :: acc)
        | `Record pulled -> (
            match Traceio.Source.decode pulled ~into:Mathkit.Fvec.create with
            | `Record r -> go (Ok r.Traceio.Archive.index :: acc)
            | `Skipped reason -> go (Error reason :: acc))
      in
      go [])

let test_archive_flipped_byte_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 2 in
  with_tmp "corrupt.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      let len = String.length original in
      (* a flip anywhere — header, length field, payload or checksum —
         must surface as Corrupt, never as silently different data *)
      List.iter
        (fun off ->
          let b = Bytes.of_string original in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
          write_file path (Bytes.to_string b);
          expect_corrupt (Printf.sprintf "flip at %d/%d" off len) (fun () -> drain path))
        [ 0; 9; 20; len / 3; len / 2; len - 2 ])

let test_archive_truncation_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 2 in
  with_tmp "trunc.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      List.iter
        (fun keep ->
          write_file path (String.sub original 0 keep);
          expect_corrupt (Printf.sprintf "truncated to %d bytes" keep) (fun () -> drain path))
        [ 4; 40; String.length original / 2; String.length original - 3 ])

let test_archive_version_and_magic_rejected () =
  let device = Reveal.Device.create ~n:4 () in
  let runs = sample_runs device 1 in
  with_tmp "version.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      let b = Bytes.of_string original in
      Bytes.set b 8 '\xFF' (* version field (u16 LE): now 255 *);
      write_file path (Bytes.to_string b);
      expect_corrupt "future version" (fun () -> drain path);
      (* format v1 (sample deltas) and v2 (event streams) archives are
         refused, not misread *)
      List.iter
        (fun old ->
          let b = Bytes.of_string original in
          Bytes.set b 8 (Char.chr old);
          Bytes.set b 9 '\x00';
          write_file path (Bytes.to_string b);
          match drain path with
          | exception Traceio.Error.Corrupt msg ->
              Alcotest.(check bool) ("names both versions: " ^ msg) true
                (contains ~affix:(Printf.sprintf "version %d " old) msg
                && contains ~affix:"this build reads version 3" msg)
          | () -> Alcotest.failf "a version-%d archive was accepted" old)
        [ 1; 2 ];
      write_file path ("NOTATALL" ^ String.sub original 8 (String.length original - 8));
      expect_corrupt "bad magic" (fun () -> drain path))

(* The payload of every frame, in file order: a 10-byte preamble, then
   frames of [u32 length | payload | u32 CRC-32]. *)
let frame_payloads s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else begin
      let len = Int32.to_int (String.get_int32_le s off) in
      go (off + 4 + len + 4) (String.sub s (off + 4) len :: acc)
    end
  in
  go 10 []

(* The v3 bytes themselves: a writer and reader that agreed on the
   wrong byte order for the sample plane would pass every round trip
   above and fail only here.  The CRC-32 is taken per payload: one over
   the whole file cannot see the payloads, because each frame ends
   with its own CRC and the CRC of [m] followed by CRC(m) depends only
   on the length of [m]. *)
let test_archive_bytes_pinned () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 2 in
  with_tmp "pinned.rvt" (fun path ->
      write_archive path device runs;
      let bytes = read_file path in
      Alcotest.(check int) "archive length" 61110 (String.length bytes);
      Alcotest.(check (list int)) "CRC-32 of each frame payload" [ 0xe9a769cf; 0xe00722ff; 0x9ab9d6a6 ]
        (List.map Traceio.Crc32.digest (frame_payloads bytes)))

let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.add_int32_le b (Int32.of_int (Traceio.Crc32.digest payload));
  Buffer.contents b

(* A record frame with a valid CRC whose sample plane claims [count]
   words over a 16-byte remainder: the decoder, not the checksum, must
   refuse it, before allocating anything. *)
let test_archive_plane_count_rejected () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 1 in
  with_tmp "plane.rvt" (fun path ->
      write_archive path device runs;
      let original = read_file path in
      (* the preamble (10 bytes) and the header frame *)
      let header_end = 10 + 8 + String.length (List.hd (frame_payloads original)) in
      List.iter
        (fun count ->
          let b = Buffer.create 64 in
          Traceio.Binio.put_varint b 0L;
          Traceio.Codec.put_ints b runs.(0).Reveal.Device.noises;
          Traceio.Binio.put_varint b (Int64.of_int count);
          Buffer.add_string b (String.make 16 '\000');
          write_file path (String.sub original 0 header_end ^ frame (Buffer.contents b));
          let what = Printf.sprintf "plane count %d" count in
          let plane_check msg = contains ~affix:"words claimed" msg in
          Traceio.Archive.with_reader path (fun r ->
              match Traceio.Archive.next r with
              | exception Traceio.Error.Corrupt msg when plane_check msg -> ()
              | _ -> Alcotest.failf "%s: next did not refuse it at the plane" what);
          match tolerant_read path with
          | [ Error msg ] when plane_check msg -> ()
          | _ -> Alcotest.failf "%s: the tolerant read did not skip it at the plane" what)
        [ 3; 1 lsl 40; max_int / 4; max_int ])

(* Values no scope produces, which a lossy or normalising codec would
   change: NaN payloads of both signs and both kinds, infinities,
   negative zero and subnormals. *)
let test_archive_special_floats_roundtrip () =
  let samples =
    Array.append
      (Array.map Int64.float_of_bits
         [| 0x7FF8000000001234L; 0xFFF8000000000001L; 0x7FF0000000000001L; 0x7FF4DEADBEEF0000L;
            0x0000000000000001L; 0x000FFFFFFFFFFFFFL; 0x8000000000000001L |])
      [| infinity; neg_infinity; -0.0; 0.0; max_float; min_float; -.min_float; 1.0 |]
  in
  let trace = { Power.Ptrace.samples; samples_per_cycle = 2 } in
  with_tmp "special.rvt" (fun path ->
      let w =
        Traceio.Archive.open_writer ~variant:Riscv.Sampler_prog.Vulnerable ~n:2 ~seed:1L ~samples_per_cycle:2
          ~noise_sigma:0.0 path
      in
      Traceio.Archive.append w ~noises:[| -1; 1 |] trace;
      Traceio.Archive.close_writer w;
      Traceio.Archive.with_reader path (fun r ->
          match Traceio.Archive.next r with
          | Some rec_ ->
              Alcotest.(check (array int64)) "next: sample bits"
                (Array.map Int64.bits_of_float samples)
                (Array.map Int64.bits_of_float (Mathkit.Fvec.to_array rec_.Traceio.Archive.samples))
          | None -> Alcotest.fail "record missing"))

(* --- profile cache -------------------------------------------------------- *)

(* A tiny but real profile: n = 64 is the smallest power of two that
   hosts every candidate value twice per run, and 16 windows per value
   keep it within unit-test time. *)
let tiny_profile =
  lazy
    (let device = Reveal.Device.create ~n:64 () in
     Reveal.Campaign.profile ~per_value:16 device (rng ()))

let profile_equal (a : Reveal.Campaign.profile) (b : Reveal.Campaign.profile) =
  let template_equal (x : Sca.Template.t) (y : Sca.Template.t) =
    x.Sca.Template.labels = y.Sca.Template.labels
    && Array.for_all2 float_bits_equal x.Sca.Template.means y.Sca.Template.means
    && Array.for_all2 float_bits_equal
         (Mathkit.Fmat.to_arrays x.Sca.Template.inv_cov)
         (Mathkit.Fmat.to_arrays y.Sca.Template.inv_cov)
    && Int64.equal (Int64.bits_of_float x.Sca.Template.log_det) (Int64.bits_of_float y.Sca.Template.log_det)
    && x.Sca.Template.pois = y.Sca.Template.pois
    (* the derived scoring fields: recomputed on load, same bits *)
    && float_bits_equal x.Sca.Template.center y.Sca.Template.center
    && Array.for_all2 float_bits_equal x.Sca.Template.lin y.Sca.Template.lin
    && float_bits_equal x.Sca.Template.offs y.Sca.Template.offs
  in
  a.Reveal.Campaign.window_length = b.Reveal.Campaign.window_length
  && a.Reveal.Campaign.values = b.Reveal.Campaign.values
  && a.Reveal.Campaign.segment = b.Reveal.Campaign.segment
  && Int64.equal (Int64.bits_of_float a.Reveal.Campaign.sigma) (Int64.bits_of_float b.Reveal.Campaign.sigma)
  && Int64.equal (Int64.bits_of_float a.Reveal.Campaign.sign_fit_floor) (Int64.bits_of_float b.Reveal.Campaign.sign_fit_floor)
  && Int64.equal
       (Int64.bits_of_float a.Reveal.Campaign.value_fit_floor)
       (Int64.bits_of_float b.Reveal.Campaign.value_fit_floor)
  && template_equal a.Reveal.Campaign.attack.Sca.Attack.sign_template b.Reveal.Campaign.attack.Sca.Attack.sign_template
  && template_equal a.Reveal.Campaign.attack.Sca.Attack.neg_template b.Reveal.Campaign.attack.Sca.Attack.neg_template
  && template_equal a.Reveal.Campaign.attack.Sca.Attack.pos_template b.Reveal.Campaign.attack.Sca.Attack.pos_template
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.neg_priors b.Reveal.Campaign.attack.Sca.Attack.neg_priors
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.pos_priors b.Reveal.Campaign.attack.Sca.Attack.pos_priors
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.prior_of_sign
       b.Reveal.Campaign.attack.Sca.Attack.prior_of_sign
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.log_prior_of_sign
       b.Reveal.Campaign.attack.Sca.Attack.log_prior_of_sign
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.neg_log_priors
       b.Reveal.Campaign.attack.Sca.Attack.neg_log_priors
  && float_bits_equal a.Reveal.Campaign.attack.Sca.Attack.pos_log_priors
       b.Reveal.Campaign.attack.Sca.Attack.pos_log_priors
  && a.Reveal.Campaign.attack.Sca.Attack.pois_sign = b.Reveal.Campaign.attack.Sca.Attack.pois_sign
  && a.Reveal.Campaign.attack.Sca.Attack.pois_neg = b.Reveal.Campaign.attack.Sca.Attack.pois_neg
  && a.Reveal.Campaign.attack.Sca.Attack.pois_pos = b.Reveal.Campaign.attack.Sca.Attack.pois_pos

let test_profile_cache_roundtrip () =
  let prof = Lazy.force tiny_profile in
  with_tmp "profile.bin" (fun path ->
      Reveal.Campaign.save_profile path prof;
      let loaded = Reveal.Campaign.load_profile path in
      Alcotest.(check bool) "profile loads bit-identically" true (profile_equal prof loaded))

let expect_corrupt_cache name ~mentions f =
  match f () with
  | exception Traceio.Error.Corrupt msg ->
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error mentions %S (got %S)" name affix msg)
            true (contains ~affix msg))
        mentions
  | _ -> Alcotest.failf "%s: bad cache was accepted" name

let test_profile_cache_stale_rejected () =
  with_tmp "stale.bin" (fun path ->
      (* what PR-era v1 wrote: text magic + Marshal blob *)
      let oc = open_out_bin path in
      output_string oc "REVEAL-PROFILE-v1\n";
      Marshal.to_channel oc (1, 2, 3) [];
      close_out oc;
      expect_corrupt_cache "stale v1 cache" ~mentions:[ "stale"; "re-run profiling" ] (fun () ->
          Reveal.Campaign.load_profile path))

let test_profile_cache_truncated_rejected () =
  let prof = Lazy.force tiny_profile in
  with_tmp "truncated.bin" (fun path ->
      Reveal.Campaign.save_profile path prof;
      let full = read_file path in
      List.iter
        (fun keep ->
          write_file path (String.sub full 0 keep);
          expect_corrupt_cache (Printf.sprintf "truncated to %d" keep) ~mentions:[] (fun () ->
              Reveal.Campaign.load_profile path))
        [ 3; 9; String.length full / 2; String.length full - 1 ])

let test_profile_cache_corrupt_rejected () =
  let prof = Lazy.force tiny_profile in
  with_tmp "flipped.bin" (fun path ->
      Reveal.Campaign.save_profile path prof;
      let full = read_file path in
      let b = Bytes.of_string full in
      let off = String.length full / 2 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
      write_file path (Bytes.to_string b);
      expect_corrupt_cache "flipped byte" ~mentions:[ "corrupt" ] (fun () -> Reveal.Campaign.load_profile path))

(* --- record / replay pipeline -------------------------------------------- *)

(* Every record of an archive as the run it captured; the firmware's
   memory image is not archived, so [poly] is empty. *)
let archived_runs path =
  let samples_per_cycle = (Traceio.Archive.with_reader path Traceio.Archive.header).Traceio.Archive.samples_per_cycle in
  Traceio.Archive.fold path
    (fun acc (r : Traceio.Archive.record) ->
      let trace = { Power.Ptrace.samples = Mathkit.Fvec.to_array r.Traceio.Archive.samples; samples_per_cycle } in
      { Reveal.Device.trace; noises = r.Traceio.Archive.noises; poly = [||] } :: acc)
    []
  |> List.rev |> Array.of_list

let test_replay_attack_bit_identical () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  (* identical generator derivations for the live and recorded campaigns *)
  let live_scope = Mathkit.Prng.create ~seed:9L () and live_sampler = Mathkit.Prng.create ~seed:10L () in
  let rec_scope = Mathkit.Prng.create ~seed:9L () and rec_sampler = Mathkit.Prng.create ~seed:10L () in
  let live_runs = Array.init 3 (fun _ -> Reveal.Device.run_gaussian device ~scope_rng:live_scope ~sampler_rng:live_sampler) in
  with_tmp "replay.rvt" (fun path ->
      Reveal.Device.record device ~path ~seed:9L ~traces:3 ~scope_rng:rec_scope ~sampler_rng:rec_sampler;
      (* the clone device replay-attack profiles on matches the recorder *)
      let clone = Reveal.Device.of_header (Traceio.Archive.with_reader path Traceio.Archive.header) in
      Alcotest.(check int) "header carries n" (Reveal.Device.n device) (Reveal.Device.n clone);
      Alcotest.(check bool) "header carries the variant" true (Reveal.Device.variant device = Reveal.Device.variant clone);
      let replayed = archived_runs path in
      Alcotest.(check int) "replayed all traces" 3 (Array.length replayed);
      Array.iteri
        (fun i live ->
          let offline = replayed.(i) in
          let live_r = Reveal.Campaign.attack_trace prof live in
          let offline_r = Reveal.Campaign.attack_trace prof offline in
          Alcotest.(check int) "same coefficient count" (Array.length live_r) (Array.length offline_r);
          Array.iteri
            (fun j lr ->
              let orr = offline_r.(j) in
              Alcotest.(check int) "same actual" lr.Reveal.Campaign.actual orr.Reveal.Campaign.actual;
              Alcotest.(check int) "same recovered value" lr.Reveal.Campaign.verdict.Sca.Attack.value
                orr.Reveal.Campaign.verdict.Sca.Attack.value;
              Alcotest.(check int) "same recovered sign" lr.Reveal.Campaign.verdict.Sca.Attack.sign
                orr.Reveal.Campaign.verdict.Sca.Attack.sign;
              Alcotest.(check bool) "same posterior bits" true
                (Array.for_all2
                   (fun (va, pa) (vb, pb) -> va = vb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
                   lr.Reveal.Campaign.posterior_all orr.Reveal.Campaign.posterior_all))
            live_r)
        live_runs)

let test_attack_archive_matches_per_trace_attacks () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  with_tmp "campaign.rvt" (fun path ->
      let g = rng () in
      Reveal.Device.record device ~path ~seed:0L ~traces:4 ~scope_rng:g ~sampler_rng:g;
      (* ground truth: replay each run and attack it individually *)
      let expected =
        Array.concat (Array.to_list (Array.map (Reveal.Campaign.attack_trace prof) (archived_runs path)))
      in
      let stats, results = Reveal.Campaign.run_source ~batch:2 prof (Reveal.Source.archive_replay path) in
      Alcotest.(check int) "flattened results" (Array.length expected) (Array.length results);
      Array.iteri
        (fun i e ->
          Alcotest.(check int) "value" e.Reveal.Campaign.verdict.Sca.Attack.value
            results.(i).Reveal.Campaign.verdict.Sca.Attack.value;
          Alcotest.(check int) "actual" e.Reveal.Campaign.actual results.(i).Reveal.Campaign.actual)
        expected;
      Alcotest.(check int) "sign totals" (Array.length expected) stats.Reveal.Campaign.sign_total)

let test_profile_of_archive_matches_live_profile () =
  let device = Reveal.Device.create ~n:64 () in
  (* 40 windows per value take 20 runs: more than one 16-record batch *)
  let live = Reveal.Campaign.profile ~per_value:40 device (rng ()) in
  with_tmp "profiling.rvt" (fun path ->
      (* the same generator state drives the recorded campaign *)
      Reveal.Campaign.record_profiling ~per_value:40 ~seed:77L device (rng ()) ~path;
      let offline = Reveal.Campaign.profile_of_archive path in
      Alcotest.(check bool) "offline profile is bit-identical to the live one" true (profile_equal live offline))

(* The profiling window checks raise typed errors.  A profiling archive
   whose records do not segment, or that holds no window, is corrupt
   input, named by record where there is one (the CLI's exit 3); live
   traces that do not segment are an Invalid_argument. *)
let test_profiling_window_errors () =
  let device = Reveal.Device.create ~n:64 () in
  let expect_corrupt what affix path =
    match Reveal.Campaign.profiling_windows_of_archive path with
    | _ -> Alcotest.failf "%s: expected Traceio.Error.Corrupt" what
    | exception Traceio.Error.Corrupt msg ->
        if not (contains ~affix msg) then Alcotest.failf "%s: %S does not say %S" what msg affix
  in
  with_tmp "profiling.rvt" (fun path ->
      Reveal.Campaign.record_profiling ~per_value:4 ~seed:5L device (rng ()) ~path;
      with_tmp "cropped.rvt" (fun cropped ->
          (* every record keeps about a third of its trace *)
          ignore (Traceio.Archive.rewrite ~span:(0, 10_000) ~src:path ~dst:cropped ());
          expect_corrupt "cropped records" "record 0: segmentation found" cropped);
      with_tmp "empty.rvt" (fun empty ->
          ignore (Traceio.Archive.rewrite ~keep:[] ~src:path ~dst:empty ());
          expect_corrupt "no records" "no profiling windows" empty));
  let faulted = Reveal.Device.create ~fault:(Power.Fault.of_intensity 1.0) ~n:64 () in
  match Reveal.Campaign.profiling_windows ~per_value:4 faulted (rng ()) with
  | _ -> Alcotest.fail "faulted live profiling: expected Invalid_argument"
  | exception Invalid_argument msg ->
      if not (contains ~affix:"segmentation found" msg) then Alcotest.failf "faulted live profiling: %S" msg

let test_record_profiling_memory_is_streamed () =
  (* structural guarantee: the reader hands out one frame at a time,
     a pulled frame decodes to exactly the record [next] hands out,
     and a recycled frame's buffer serves the next pull *)
  let device = Reveal.Device.create ~n:64 () in
  with_tmp "stream.rvt" (fun path ->
      Reveal.Campaign.record_profiling ~per_value:8 ~seed:1L device (rng ()) ~path;
      let singles =
        Traceio.Archive.with_reader path (fun r ->
            List.init 2 (fun _ ->
                match Traceio.Archive.next r with Some rec_ -> rec_ | None -> Alcotest.fail "record missing"))
      in
      Traceio.Archive.with_reader path (fun r ->
          List.iteri
            (fun i (single : Traceio.Archive.record) ->
              let frame = match Traceio.Archive.pull r with Some f -> f | None -> Alcotest.fail "frame missing" in
              let b = Traceio.Archive.decode_into frame ~into:Mathkit.Fvec.create in
              Traceio.Archive.recycle frame;
              Alcotest.(check int) "frame index" i b.Traceio.Archive.index;
              Alcotest.(check int) "frame index = next's" single.Traceio.Archive.index b.Traceio.Archive.index;
              Alcotest.(check (array int)) "frame labels" single.Traceio.Archive.noises b.Traceio.Archive.noises;
              Alcotest.(check bool) "frame sample bits" true
                (float_bits_equal
                   (Mathkit.Fvec.to_array single.Traceio.Archive.samples)
                   (Mathkit.Fvec.to_array b.Traceio.Archive.samples));
              Alcotest.check_raises "a recycled frame is not decoded again"
                (Invalid_argument "Archive.decode_into: frame already recycled") (fun () ->
                  ignore (Traceio.Archive.decode_into frame ~into:Mathkit.Fvec.create)))
            singles;
          let h = Traceio.Archive.header r in
          Alcotest.(check bool) "profiling metadata present" true
            (Traceio.Archive.meta_find h "profiling:threshold-bits" <> None)))

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 slice-by-8 = byte-wise, every length and offset" `Quick test_crc32_matches_bytewise;
    QCheck_alcotest.to_alcotest prop_crc32_pieces;
    Alcotest.test_case "varint/svarint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "binio truncation detected" `Quick test_binio_truncation_detected;
    QCheck_alcotest.to_alcotest prop_floats_roundtrip;
    QCheck_alcotest.to_alcotest prop_ints_roundtrip;
    Alcotest.test_case "archive roundtrip is bit-identical" `Quick test_archive_roundtrip;
    Alcotest.test_case "flipped byte => checksum error" `Quick test_archive_flipped_byte_rejected;
    Alcotest.test_case "truncated file => clean failure" `Quick test_archive_truncation_rejected;
    Alcotest.test_case "bad magic / future version rejected" `Quick test_archive_version_and_magic_rejected;
    Alcotest.test_case "archive bytes pinned (v3)" `Quick test_archive_bytes_pinned;
    Alcotest.test_case "sample plane count beyond the payload rejected" `Quick test_archive_plane_count_rejected;
    Alcotest.test_case "NaN payloads, infinities, -0.0, subnormals roundtrip" `Quick
      test_archive_special_floats_roundtrip;
    Alcotest.test_case "profile cache roundtrip" `Quick test_profile_cache_roundtrip;
    Alcotest.test_case "profile cache: stale v1 rejected" `Quick test_profile_cache_stale_rejected;
    Alcotest.test_case "profile cache: truncated rejected" `Quick test_profile_cache_truncated_rejected;
    Alcotest.test_case "profile cache: flipped byte rejected" `Quick test_profile_cache_corrupt_rejected;
    Alcotest.test_case "replayed attack = live attack (bit-identical)" `Quick test_replay_attack_bit_identical;
    Alcotest.test_case "attack_archive = per-trace replay attacks" `Quick test_attack_archive_matches_per_trace_attacks;
    Alcotest.test_case "profile_of_archive = live profile" `Quick test_profile_of_archive_matches_live_profile;
    Alcotest.test_case "archive streaming is batch-bounded" `Quick test_record_profiling_memory_is_streamed;
    Alcotest.test_case "profiling window errors are typed" `Quick test_profiling_window_errors;
  ]

(* --- tolerant replay (CRC skip-and-continue) ----------------------------- *)

(* Byte offset of a mid-payload byte of record [k]: the file is
   magic(8) + version(2) followed by length-prefixed frames, frame 0
   being the header. *)
let u32_at s off =
  Char.code s.[off] lor (Char.code s.[off + 1] lsl 8) lor (Char.code s.[off + 2] lsl 16) lor (Char.code s.[off + 3] lsl 24)

(* Byte offset of record [k]'s frame (its length field). *)
let record_frame_offset s k =
  let rec skip off frames = if frames = 0 then off else skip (off + 4 + u32_at s off + 4) (frames - 1) in
  skip 10 (k + 1)

let record_payload_offset s k =
  let frame = record_frame_offset s k in
  frame + 4 + (u32_at s frame / 2)

let flip_payload_byte path k =
  let original = read_file path in
  let off = record_payload_offset original k in
  let b = Bytes.of_string original in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  write_file path (Bytes.to_string b)

let test_tolerant_read_skips_bad_crc () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "skip.rvt" (fun path ->
      write_archive path device runs;
      flip_payload_byte path 1;
      (* the strict path still fails fast *)
      expect_corrupt "strict drain" (fun () -> drain path);
      (* the tolerant path drops exactly the damaged record *)
      let read = tolerant_read path in
      Alcotest.(check (list int)) "survivors resume at the frame boundary" [ 0; 2 ] (List.filter_map Result.to_option read);
      Alcotest.(check int) "one record skipped" 1 (List.length (List.filter Result.is_error read)))

let test_attack_archive_skips_corrupt_record () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  with_tmp "tolerant.rvt" (fun path ->
      let g = rng () in
      Reveal.Device.record device ~path ~seed:0L ~traces:4 ~scope_rng:g ~sampler_rng:g;
      flip_payload_byte path 2;
      let replay ~strict = Reveal.Campaign.run_source ~batch:2 prof (Reveal.Source.archive_replay ~strict path) in
      let stats, results = replay ~strict:false in
      Alcotest.(check int) "corrupt record counted" 1 stats.Reveal.Campaign.corrupt_skipped;
      Alcotest.(check int) "remaining traces attacked" (3 * 16) (Array.length results);
      (* --strict semantics: fail fast instead of skipping *)
      expect_corrupt "strict replay" (fun () -> ignore (replay ~strict:true)))

let suite =
  suite
  @ [
      Alcotest.test_case "tolerant read skips a bad-CRC record" `Quick test_tolerant_read_skips_bad_crc;
      Alcotest.test_case "attack_archive tolerant vs strict" `Quick test_attack_archive_skips_corrupt_record;
    ]

(* --- the record-stream adapter ---------------------------------------- *)

let test_source_aliases_share_one_cursor () =
  (* [next_fv] is [next] under its older name: interleaved pulls walk
     one cursor *)
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "aliases.rvt" (fun path ->
      write_archive path device runs;
      let src = Traceio.Source.of_archive path in
      Fun.protect
        ~finally:(fun () -> Traceio.Source.close src)
        (fun () ->
          let index = function
            | `Record pulled -> (
                match Traceio.Source.decode pulled ~into:Mathkit.Fvec.create with
                | `Record (r : Traceio.Archive.record) -> r.Traceio.Archive.index
                | `Skipped reason -> Alcotest.failf "unexpected skip: %s" reason)
            | `Skipped reason -> Alcotest.failf "unexpected skip: %s" reason
            | `End_of_archive -> -1
          in
          let a = index (Traceio.Source.next src) in
          let b = index (Traceio.Source.next_fv src) in
          let c = index (Traceio.Source.next src) in
          let d = index (Traceio.Source.next_fv src) in
          Alcotest.(check (list int)) "records 0, 1, 2 in order, then the end" [ 0; 1; 2; -1 ] [ a; b; c; d ]))

let test_trace_source_pulls_next_fv () =
  (* a wrapped backend is pulled through the closure passed as
     [~next_fv], the one a caller instruments (a traced run times
     decode there); [~next] must never run *)
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  with_tmp "wrapped.rvt" (fun path ->
      let g = rng () in
      Reveal.Device.record device ~path ~seed:0L ~traces:3 ~scope_rng:g ~sampler_rng:g;
      let stream = Traceio.Source.of_archive path in
      let pulls = ref 0 in
      let wrapped =
        Traceio.Source.make_fv ~name:(Traceio.Source.name stream)
          ~next:(fun () -> Alcotest.fail "the ~next closure was pulled")
          ~next_fv:(fun () ->
            incr pulls;
            Traceio.Source.next_fv stream)
          ~close:(fun () -> Traceio.Source.close stream)
      in
      let stats, results = Reveal.Campaign.run_source ~batch:2 prof (Reveal.Source.of_trace_source wrapped) in
      Alcotest.(check int) "one pull per record, plus the end" 4 !pulls;
      let expected_stats, expected = Reveal.Campaign.attack_archive prof path in
      Alcotest.(check int) "result count" (Array.length expected) (Array.length results);
      Array.iteri
        (fun i (e : Reveal.Campaign.coefficient_result) ->
          let r = results.(i) in
          Alcotest.(check int) "actual" e.Reveal.Campaign.actual r.Reveal.Campaign.actual;
          Alcotest.(check int) "value" e.Reveal.Campaign.verdict.Sca.Attack.value
            r.Reveal.Campaign.verdict.Sca.Attack.value;
          Alcotest.(check int) "sign" e.Reveal.Campaign.verdict.Sca.Attack.sign r.Reveal.Campaign.verdict.Sca.Attack.sign;
          Alcotest.(check bool) "grade" true (e.Reveal.Campaign.grade = r.Reveal.Campaign.grade);
          Alcotest.(check bool) "posterior bits" true
            (Array.for_all2
               (fun (va, pa) (vb, pb) -> va = vb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
               e.Reveal.Campaign.posterior_all r.Reveal.Campaign.posterior_all))
        expected;
      Alcotest.(check int) "sign correct" expected_stats.Reveal.Campaign.sign_correct stats.Reveal.Campaign.sign_correct;
      Alcotest.(check int) "value correct" expected_stats.Reveal.Campaign.value_correct
        stats.Reveal.Campaign.value_correct)

let suite =
  suite
  @ [
      Alcotest.test_case "archive source: next and next_fv share one cursor" `Quick
        test_source_aliases_share_one_cursor;
      Alcotest.test_case "of_trace_source pulls make_fv's next_fv" `Quick test_trace_source_pulls_next_fv;
    ]

(* --- records checked and decoded on the workers ------------------------- *)

(* Give record [k] the index [index] (both below 128, one varint byte)
   and re-checksum its frame: the CRC passes, and the payload decodes
   to a record out of sequence. *)
let reindex_record path k index =
  let original = read_file path in
  let frame = record_frame_offset original k in
  let len = u32_at original frame in
  let b = Bytes.of_string original in
  Bytes.set b (frame + 4) (Char.chr index);
  let crc = Traceio.Crc32.digest (Bytes.sub_string b (frame + 4) len) in
  for i = 0 to 3 do
    Bytes.set b (frame + 4 + len + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  write_file path (Bytes.to_string b)

(* Every field of a coefficient result, posteriors as bits. *)
let result_key (r : Reveal.Campaign.coefficient_result) =
  let dist d = Array.to_list (Array.map (fun (v, p) -> (v, Int64.bits_of_float p)) d) in
  ( (r.Reveal.Campaign.actual, r.verdict.Sca.Attack.sign, r.verdict.Sca.Attack.value),
    (dist r.verdict.Sca.Attack.posterior, dist r.posterior_all),
    (r.grade, r.recovery) )

(* Records 2 and 3 fail their checksums (one batch of 2 or 16) and
   record 5 carries index 9 under a valid checksum.  Tolerant replay
   drops exactly those three, whatever the domain count and batch, and
   still counts them toward their batches; strict replay raises record
   2's error, the one a strict read of the archive raises. *)
let test_corrupt_replay_parity () =
  let device = Reveal.Device.create ~n:16 () in
  let prof = Lazy.force tiny_profile in
  with_tmp "parity.rvt" (fun path ->
      let g = rng () in
      Reveal.Device.record device ~path ~seed:0L ~traces:6 ~scope_rng:g ~sampler_rng:g;
      let clean = snd (Reveal.Campaign.run_source ~domains:1 ~batch:1 prof (Reveal.Source.archive_replay path)) in
      let expected = Array.concat (List.map (fun i -> Array.sub clean (i * 16) 16) [ 0; 1; 4 ]) in
      flip_payload_byte path 2;
      flip_payload_byte path 3;
      reindex_record path 5 9;
      let strict_msg =
        match drain path with
        | () -> Alcotest.fail "a strict read accepted the damaged archive"
        | exception Traceio.Error.Corrupt msg -> msg
      in
      Alcotest.(check bool) "record 2's checksum is the first damage" true (contains ~affix:"checksum mismatch" strict_msg);
      List.iter
        (fun domains ->
          List.iter
            (fun batch ->
              let label = Printf.sprintf "%d domains, batch %d" domains batch in
              let sink, _ = Obs.Sink.memory () in
              let obs = Obs.Ctx.create ~sink () in
              let stats, results =
                Reveal.Campaign.run_source ~obs ~domains ~batch prof (Reveal.Source.archive_replay ~obs path)
              in
              let count name = Obs.Metrics.counter_value (Obs.Ctx.counter obs name) in
              Alcotest.(check int) (label ^ ": corrupt_skipped") 3 stats.Reveal.Campaign.corrupt_skipped;
              Alcotest.(check int) (label ^ ": source.skips") 3 (count "source.skips");
              Alcotest.(check int) (label ^ ": traceio.records_skipped") 3 (count "traceio.records_skipped");
              Alcotest.(check int) (label ^ ": source.items") 3 (count "source.items");
              Alcotest.(check int) (label ^ ": skips count toward batches") ((6 + batch - 1) / batch)
                (count "campaign.batches");
              Alcotest.(check int) (label ^ ": result count") (Array.length expected) (Array.length results);
              Array.iteri
                (fun i r -> if result_key r <> result_key expected.(i) then Alcotest.failf "%s: coefficient %d differs" label i)
                results;
              match Reveal.Campaign.run_source ~domains ~batch prof (Reveal.Source.archive_replay ~strict:true path) with
              | _ -> Alcotest.failf "%s: strict replay accepted the damaged archive" label
              | exception Traceio.Error.Corrupt msg -> Alcotest.(check string) (label ^ ": strict error") strict_msg msg)
            [ 1; 2; 16 ])
        [ 1; 2; 3 ])

(* Archive profiling raises the first damage in archive order, on any
   domain count, as strict replay does.  The 20 records are two
   batches: each case damages a record in each, or cuts the file inside
   the second batch after a damaged record, so the pull raises only
   once the records before it are decoded.  The cut alone raises the
   truncation. *)
let test_profiling_damage_order () =
  let device = Reveal.Device.create ~n:64 () in
  with_tmp "profiling-clean.rvt" (fun clean ->
      (* 40 windows per value take 20 runs *)
      Reveal.Campaign.record_profiling ~per_value:40 ~seed:77L device (rng ()) ~path:clean;
      let original = read_file clean in
      let cut_inside k path =
        let s = read_file path in
        write_file path (String.sub s 0 (record_payload_offset s k))
      in
      List.iter
        (fun (what, damage, affix) ->
          with_tmp "profiling-damaged.rvt" (fun path ->
              write_file path original;
              damage path;
              let first =
                match drain path with
                | () -> Alcotest.failf "%s: a strict read accepted the damaged archive" what
                | exception Traceio.Error.Corrupt msg -> msg
              in
              if not (contains ~affix first) then Alcotest.failf "%s: the first damage %S does not say %S" what first affix;
              List.iter
                (fun domains ->
                  match Reveal.Profiling.profiling_windows_of_archive ~domains path with
                  | _ -> Alcotest.failf "%s, %d domains: profiling accepted the damaged archive" what domains
                  | exception Traceio.Error.Corrupt msg ->
                      Alcotest.(check string) (Printf.sprintf "%s, %d domains" what domains) first msg)
                [ 1; 2; 3 ]))
        [
          ( "record 3 re-indexed, record 18's CRC flipped",
            (fun p ->
              reindex_record p 3 9;
              flip_payload_byte p 18),
            "found where record 3 was expected" );
          ( "record 3's CRC flipped, record 18 re-indexed",
            (fun p ->
              flip_payload_byte p 3;
              reindex_record p 18 9),
            "checksum mismatch" );
          ( "record 18's CRC flipped, the file cut inside record 19",
            (fun p ->
              flip_payload_byte p 18;
              cut_inside 19 p),
            "checksum mismatch" );
          ("the file cut inside record 19", cut_inside 19, "unexpected end of file");
        ])

(* The decode kernel writes the plane into the front of the vector it
   is given: decoded into one reused plane longer than every record,
   each pulled frame is the record [next] returns, and the plane past
   the record is left as it was. *)
let test_frame_decode_matches_next () =
  let device = Reveal.Device.create ~n:8 () in
  let runs = sample_runs device 3 in
  with_tmp "frames.rvt" (fun path ->
      write_archive path device runs;
      let expected = List.rev (Traceio.Archive.fold path (fun acc r -> r :: acc) []) in
      let longest =
        List.fold_left (fun m (r : Traceio.Archive.record) -> max m (Mathkit.Fvec.length r.samples)) 0 expected
      in
      let plane = Mathkit.Fvec.init (longest + 5) (fun i -> -1.5 -. float_of_int i) in
      Traceio.Archive.with_reader path (fun r ->
          List.iter
            (fun (e : Traceio.Archive.record) ->
              let frame = match Traceio.Archive.pull r with Some f -> f | None -> Alcotest.fail "frame missing" in
              let before = Mathkit.Fvec.to_array plane in
              let got = Traceio.Archive.decode_into frame ~into:(fun _ -> plane) in
              Traceio.Archive.recycle frame;
              let len = Mathkit.Fvec.length e.samples in
              Alcotest.(check int) "index" e.index got.Traceio.Archive.index;
              Alcotest.(check (array int)) "labels" e.noises got.Traceio.Archive.noises;
              Alcotest.(check bool) "sample bits" true
                (float_bits_equal (Mathkit.Fvec.to_array e.samples) (Mathkit.Fvec.to_array got.Traceio.Archive.samples));
              Alcotest.(check bool) "decoded into the plane's front" true
                (float_bits_equal (Mathkit.Fvec.to_array e.samples) (Array.sub (Mathkit.Fvec.to_array plane) 0 len));
              let after = Mathkit.Fvec.to_array plane in
              Alcotest.(check bool) "tail untouched" true
                (float_bits_equal (Array.sub before len (longest + 5 - len)) (Array.sub after len (longest + 5 - len))))
            expected;
          Alcotest.(check bool) "then the end" true (Traceio.Archive.pull r = None)))

(* Archive profiling decodes, segments, fits and sweeps its floors on
   the workers: the profile is the same, as bits, on 1, 2 and 3. *)
let test_profile_of_archive_domain_invariant () =
  let device = Reveal.Device.create ~n:64 () in
  with_tmp "domains.rvt" (fun path ->
      (* 20 runs: more than one 16-frame batch *)
      Reveal.Campaign.record_profiling ~per_value:40 ~seed:77L device (rng ()) ~path;
      (* [profile_of_archive]'s body, at a chosen domain count *)
      let profile domains =
        Reveal.Profiling.profile_of_windows ~domains ~poi_count:Reveal.Constants.default_poi_count
          ~sign_poi_count:Reveal.Constants.default_sign_poi_count
          (Reveal.Profiling.profiling_windows_of_archive ~domains path)
      in
      let one = profile 1 in
      Alcotest.(check bool) "1 domain: profile_of_archive" true (profile_equal one (Reveal.Campaign.profile_of_archive path));
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "%d domains: the one-domain profile" domains)
            true
            (profile_equal one (profile domains)))
        [ 2; 3 ])

let suite =
  suite
  @ [
      Alcotest.test_case "corrupt replay: same skips and errors on every domain count and batch" `Quick
        test_corrupt_replay_parity;
      Alcotest.test_case "archive profiling raises the first damage on every domain count" `Quick
        test_profiling_damage_order;
      Alcotest.test_case "archive frame decode = Archive.next" `Quick test_frame_decode_matches_next;
      Alcotest.test_case "profile_of_archive does not depend on the domain count" `Quick
        test_profile_of_archive_domain_invariant;
    ]
