(* Obs layer: JSON codec round-trips, the zero-cost disabled path,
   metrics semantics (histogram bucket boundaries in particular), the
   event codec through a memory sink, and the golden obs summary —
   the logical clock makes a whole instrumented campaign's summary
   byte-reproducible. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

let ok_exn = function Ok v -> v | Error e -> Alcotest.failf "unexpected parse error: %s" e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* --- JSON parser: deterministic cases ------------------------------------- *)

let test_parse_scalars () =
  let check msg expected input = Alcotest.(check string) msg expected (Obs.Json.to_string (ok_exn (Obs.Json.parse input))) in
  check "null" "null" "null";
  check "true" "true" " true ";
  check "int" "-42" "-42";
  check "float keeps a decimal point" "1.5" "1.5";
  check "exponent parses as float" "1e+30" "1e30";
  check "integral float keeps .0" "2.0" "2.0";
  check "string escapes" "\"a\\nb\"" "\"a\\nb\"";
  check "unicode escape decodes to UTF-8" "\"\\u0001\"" "\"\\u0001\"";
  check "nested containers" "{\"a\":[1,2.5,null],\"b\":{}}" "{ \"a\" : [ 1 , 2.5 , null ] , \"b\" : {} }"

let test_parse_errors () =
  let fails msg input =
    match Obs.Json.parse input with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
    | Error e ->
        Alcotest.(check bool) (msg ^ ": error names an offset") true
          (String.length e >= 7 && String.sub e 0 7 = "offset ")
  in
  fails "empty input" "";
  fails "trailing garbage" "1 2";
  fails "unterminated string" "\"abc";
  fails "unterminated object" "{\"a\":1";
  fails "bare word" "nulL";
  fails "missing colon" "{\"a\" 1}"

let test_accessors () =
  let j = ok_exn (Obs.Json.parse "{\"i\":3,\"f\":1.5,\"s\":\"x\"}") in
  Alcotest.(check (option int)) "member+to_int" (Some 3) Option.(bind (Obs.Json.member "i" j) Obs.Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "int widens to float" (Some 3.0)
    Option.(bind (Obs.Json.member "i" j) Obs.Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "float" (Some 1.5) Option.(bind (Obs.Json.member "f" j) Obs.Json.to_float_opt);
  Alcotest.(check (option string)) "string" (Some "x") Option.(bind (Obs.Json.member "s" j) Obs.Json.to_string_opt);
  Alcotest.(check bool) "missing key" true (Obs.Json.member "zz" j = None);
  Alcotest.(check bool) "member of non-object" true (Obs.Json.member "a" (Obs.Json.Int 1) = None)

(* --- JSON codec: property round-trip -------------------------------------- *)

(* Floats normalized through %.12g round-trip exactly: a 12-significant-
   digit decimal is ~3 orders of magnitude coarser than a double ulp, so
   decimal -> nearest double -> %.12g is the identity on such decimals. *)
let roundtrip_float f =
  let f = if Float.is_finite f then f else 0.0 in
  float_of_string (Printf.sprintf "%.12g" f)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float (roundtrip_float f)) float;
        map (fun s -> Obs.Json.String s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n / 2))));
               (1, map (fun kvs -> Obs.Json.Obj kvs) (list_size (int_bound 4) (pair key (self (n / 2)))));
             ])

let codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"emit |> parse |> emit is the identity"
    (QCheck.make json_gen ~print:Obs.Json.to_string)
    (fun j ->
      let s = Obs.Json.to_string j in
      match Obs.Json.parse s with
      | Error e -> QCheck.Test.fail_reportf "emitted %s failed to parse: %s" s e
      | Ok j2 -> String.equal s (Obs.Json.to_string j2))

(* --- clocks ---------------------------------------------------------------- *)

let test_clocks () =
  let l = Obs.Clock.logical () in
  let t1 = Obs.Clock.now l in
  let t2 = Obs.Clock.now l in
  let t3 = Obs.Clock.now l in
  Alcotest.(check (list (float 0.0))) "logical ticks 1,2,3" [ 1.0; 2.0; 3.0 ] [ t1; t2; t3 ];
  Alcotest.(check string) "logical kind name" "logical" (Obs.Clock.kind_name l);
  let w = Obs.Clock.wall () in
  let a = Obs.Clock.now w in
  let b = Obs.Clock.now w in
  Alcotest.(check bool) "wall readings never decrease" true (b >= a && a >= 0.0);
  Alcotest.(check string) "wall kind name" "wall" (Obs.Clock.kind_name w)

(* --- metrics --------------------------------------------------------------- *)

let test_counters_and_gauges () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a.count" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "get-or-create returns the same counter" true (Obs.Metrics.counter m "a.count" == c);
  let g = Obs.Metrics.gauge m "a.gauge" in
  Obs.Metrics.set g 2.0;
  Obs.Metrics.set g 7.5;
  Alcotest.(check (float 0.0)) "gauge is last-write-wins" 7.5 (Obs.Metrics.gauge_value g)

let test_histogram_boundaries () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] m "h" in
  (* a value on a bound counts in that bound's bucket *)
  List.iter (Obs.Metrics.observe h) [ 1.0; 1.5; 2.0; 5.0; 5.0001; 0.0 ];
  let s = Obs.Metrics.histogram_snapshot h in
  Alcotest.(check int) "count" 6 s.Obs.Metrics.count;
  Alcotest.(check (array (float 0.0))) "bounds preserved" [| 1.0; 2.0; 5.0 |] s.Obs.Metrics.bounds;
  Alcotest.(check (array int)) "bucket counts (boundary values inclusive)" [| 2; 2; 1 |] s.Obs.Metrics.counts;
  Alcotest.(check int) "above the last bound is overflow" 1 s.Obs.Metrics.overflow;
  Alcotest.(check (option (float 0.0))) "min" (Some 0.0) s.Obs.Metrics.min;
  Alcotest.(check (option (float 0.0))) "max" (Some 5.0001) s.Obs.Metrics.max;
  let empty = Obs.Metrics.histogram ~buckets:[| 1.0 |] m "empty" in
  let se = Obs.Metrics.histogram_snapshot empty in
  Alcotest.(check bool) "no observations -> no min/max" true (se.Obs.Metrics.min = None && se.Obs.Metrics.max = None);
  Alcotest.check_raises "buckets must be strictly increasing"
    (Invalid_argument "Obs.Metrics.histogram bad: buckets must be strictly increasing") (fun () ->
      ignore (Obs.Metrics.histogram ~buckets:[| 1.0; 1.0 |] m "bad"));
  Alcotest.(check bool) "first bucket layout wins" true
    (Obs.Metrics.histogram ~buckets:[| 9.0 |] m "h" == h)

let test_snapshot_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter m "b");
  Obs.Metrics.incr (Obs.Metrics.counter m "a");
  Obs.Metrics.set (Obs.Metrics.gauge m "g") 1.5;
  let j = Obs.Metrics.snapshot m in
  Alcotest.(check string) "snapshot shape, names sorted" "{\"counters\":{\"a\":1,\"b\":1},\"gauges\":{\"g\":1.5},\"histograms\":{}}"
    (Obs.Json.to_string j)

let test_quantiles () =
  (* directed distribution: 8 observations, 4 per bucket, known range *)
  let q p =
    Obs.Metrics.estimate_quantile ~count:8 ~min:(Some 0.0) ~max:(Some 2.0)
      ~buckets:[ (1.0, 4); (2.0, 4) ] ~overflow:0 p
  in
  Alcotest.(check (option (float 1e-9))) "p50 at the bucket bound" (Some 1.0) (q 0.5);
  Alcotest.(check (option (float 1e-9))) "p25 interpolates inside the bucket" (Some 0.5) (q 0.25);
  Alcotest.(check (option (float 1e-9))) "p100 is the max" (Some 2.0) (q 1.0);
  Alcotest.(check (option (float 1e-9))) "p0 is the min" (Some 0.0) (q 0.0);
  Alcotest.(check (option (float 1e-9))) "q below 0 clamps to the min" (Some 0.0) (q (-3.0));
  Alcotest.(check (option (float 1e-9))) "q above 1 clamps to the max" (Some 2.0) (q 7.0);
  Alcotest.(check bool) "empty distribution has no quantiles" true
    (Obs.Metrics.estimate_quantile ~count:0 ~min:None ~max:None ~buckets:[] ~overflow:0 0.5 = None);
  (* ranks landing in the overflow bucket interpolate toward the observed max *)
  let qo p =
    Obs.Metrics.estimate_quantile ~count:4 ~min:(Some 0.5) ~max:(Some 9.0)
      ~buckets:[ (1.0, 1) ] ~overflow:3 p
  in
  Alcotest.(check (option (float 1e-9))) "overflow p100 is the max" (Some 9.0) (qo 1.0);
  Alcotest.(check (option (float 1e-9))) "overflow interpolates to the max" (Some (1.0 +. (8.0 /. 3.0))) (qo 0.5);
  (* the estimator over a live histogram's snapshot *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] m "q" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 1.5; 2.0; 5.0; 5.0001; 0.0 ];
  let s = Obs.Metrics.histogram_snapshot h in
  let quantile q =
    Obs.Metrics.estimate_quantile ~count:s.count ~min:s.min ~max:s.max
      ~buckets:(Array.to_list (Array.mapi (fun i le -> (le, s.counts.(i))) s.bounds))
      ~overflow:s.overflow q
  in
  Alcotest.(check (option (float 1e-9))) "snapshot p50" (Some 1.5) (quantile 0.5);
  Alcotest.(check bool) "snapshot quantiles stay within the observed range" true
    (match quantile 1.0 with Some v -> v <= 5.0001 && v >= 0.0 | None -> false)

(* --- sinks: tee, stream, flight-recorder ring ------------------------------- *)

let test_sink_tee () =
  let a, drain_a = Obs.Sink.memory () in
  let b, drain_b = Obs.Sink.memory () in
  let t = Obs.Sink.tee a b in
  List.iter (fun i -> Obs.Sink.emit t (Obs.Json.Int i)) [ 1; 2; 3 ];
  Obs.Sink.close t;
  let expected = List.map (fun i -> Obs.Json.Int i) [ 1; 2; 3 ] in
  Alcotest.(check bool) "first sink saw the sequence" true (drain_a () = expected);
  Alcotest.(check bool) "second sink saw the identical sequence" true (drain_b () = expected);
  (* teeing with null is the identity — the disabled path stays free *)
  Alcotest.(check bool) "tee with null on the right is physically the other sink" true (Obs.Sink.tee a Obs.Sink.null == a);
  Alcotest.(check bool) "tee with null on the left is physically the other sink" true (Obs.Sink.tee Obs.Sink.null b == b)

let test_sink_stream () =
  (* ordering: the background sender hands lines over in emission order;
     Sink.close joins the sender domain, so reading afterwards is safe *)
  let lines = ref [] in
  let closed = ref 0 in
  let sink, drops =
    Obs.Sink.stream ~send:(fun l -> lines := l :: !lines) ~close:(fun () -> incr closed) ()
  in
  List.iter (fun i -> Obs.Sink.emit sink (Obs.Json.Int i)) [ 1; 2; 3; 4 ];
  Obs.Sink.close sink;
  Alcotest.(check (list string)) "lines arrive in emission order" [ "1"; "2"; "3"; "4" ] (List.rev !lines);
  Alcotest.(check int) "nothing dropped" 0 (drops ());
  Alcotest.(check int) "close callback ran exactly once" 1 !closed;
  Obs.Sink.close sink;
  Alcotest.(check int) "close is idempotent" 1 !closed;
  (* a send that raises (receiver went away) drops and counts — never raises *)
  let sink, drops = Obs.Sink.stream ~send:(fun _ -> raise Exit) ~close:(fun () -> ()) () in
  List.iter (fun i -> Obs.Sink.emit sink (Obs.Json.Int i)) [ 1; 2; 3; 4; 5 ];
  Obs.Sink.close sink;
  Alcotest.(check int) "every rejected line is counted" 5 (drops ())

let test_sink_ring () =
  (* the ring holds 256 events: 258 wrap it by two *)
  let sink, ring = Obs.Sink.ring () in
  for i = 1 to 258 do
    Obs.Sink.emit sink (Obs.Json.Int i)
  done;
  Obs.Sink.close sink;
  (* close is a no-op: the ring outlives the sink for the crash dump *)
  Alcotest.(check int) "total counts every event ever recorded" 258 (Obs.Sink.ring_total ring);
  let retained = List.init 256 (fun i -> i + 3) in
  Alcotest.(check bool) "contents are the last capacity events, oldest first" true
    (Obs.Sink.ring_contents ring = List.map (fun i -> Obs.Json.Int i) retained);
  let path = Filename.temp_file "obs_ring" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Sink.ring_dump ring path;
      match String.split_on_char '\n' (String.trim (read_file path)) with
      | header :: rest ->
          Alcotest.(check string) "dump header declares capacity and wraparound"
            "{\"v\":1,\"ev\":\"flight\",\"capacity\":256,\"total\":258}" header;
          Alcotest.(check (list string)) "dump body is the retained events" (List.map string_of_int retained) rest
      | [] -> Alcotest.fail "empty dump")

(* --- disabled path is a no-op ---------------------------------------------- *)

let test_disabled_noop () =
  let calls = ref 0 in
  let r =
    Obs.Ctx.span Obs.Ctx.disabled "x" (fun () ->
        incr calls;
        17)
  in
  Alcotest.(check int) "span runs the thunk exactly once" 1 !calls;
  Alcotest.(check int) "span returns the thunk's value" 17 r;
  Alcotest.check_raises "span re-raises" Exit (fun () -> Obs.Ctx.span Obs.Ctx.disabled "x" (fun () -> raise Exit));
  Obs.Ctx.event ~level:Obs.Ctx.Error Obs.Ctx.disabled "nothing";
  Obs.Ctx.close Obs.Ctx.disabled;
  Alcotest.(check bool) "disabled is disabled" false (Obs.Ctx.enabled Obs.Ctx.disabled);
  Obs.Sink.emit Obs.Sink.null (Obs.Json.Int 1);
  Obs.Sink.close Obs.Sink.null

(* A campaign run without a context resolves no instrument: the shared
   disabled context's registry stays empty through a replay and a live
   campaign, source pulls included. *)
let test_disabled_campaign_registers_nothing () =
  let device = Reveal.Device.create ~n:64 () in
  let prof = Reveal.Campaign.profile ~per_value:16 device (Mathkit.Prng.create ~seed:3L ()) in
  let path = Filename.temp_file "obs_disabled" ".rvt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = Mathkit.Prng.create ~seed:4L () in
      Reveal.Device.record device ~path ~seed:4L ~traces:2 ~scope_rng:g ~sampler_rng:g;
      ignore (Reveal.Campaign.attack_archive prof path);
      ignore
        (Reveal.Campaign.run_attacks_resilient prof device ~traces:2 ~scope_rng:(Mathkit.Prng.create ~seed:5L ())
           ~sampler_rng:(Mathkit.Prng.create ~seed:6L ())));
  Alcotest.(check string) "disabled registry empty" "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    (Obs.Json.to_string (Obs.Metrics.snapshot (Obs.Ctx.metrics Obs.Ctx.disabled)))

(* --- event codec through a context ----------------------------------------- *)

let run_demo_trace () =
  let sink, drain = Obs.Sink.memory () in
  let obs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~sink () in
  let v =
    Obs.Ctx.span obs "outer" (fun () ->
        Obs.Ctx.event ~level:Obs.Ctx.Warn ~attrs:[ ("reason", Obs.Json.String "demo") ] obs "warned";
        Obs.Ctx.span obs "inner" (fun () -> 3))
  in
  Alcotest.(check int) "span nest returns inner value" 3 v;
  Obs.Metrics.incr ~by:2 (Obs.Ctx.counter obs "seen");
  (try Obs.Ctx.span obs "boom" (fun () -> raise Exit) with Exit -> ());
  Obs.Ctx.close obs;
  Obs.Ctx.close obs;
  (* idempotent *)
  drain ()

let test_event_stream () =
  let records = run_demo_trace () in
  let evs =
    List.filter_map (fun r -> Option.bind (Obs.Json.member "ev" r) Obs.Json.to_string_opt) records
  in
  Alcotest.(check (list string)) "record sequence"
    [ "start"; "span_begin"; "event"; "span_begin"; "span_end"; "span_end"; "span_begin"; "span_end"; "metrics" ]
    evs;
  let errored =
    List.exists
      (fun r ->
        Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some "boom"
        && Obs.Json.member "error" r = Some (Obs.Json.Bool true))
      records
  in
  Alcotest.(check bool) "failing span is flagged" true errored

let test_event_codec_roundtrip () =
  (* every record survives the JSONL text round-trip structurally *)
  let records = run_demo_trace () in
  List.iteri
    (fun i r ->
      let line = Obs.Json.to_string r in
      match Obs.Json.parse line with
      | Error e -> Alcotest.failf "record %d: %s does not re-parse: %s" i line e
      | Ok r2 -> Alcotest.(check string) (Printf.sprintf "record %d round-trips" i) line (Obs.Json.to_string r2))
    records

let test_summary_of_records () =
  let s = ok_exn (Obs.Summary.of_records (run_demo_trace ())) in
  Alcotest.(check (option string)) "clock recorded" (Some "logical") s.Obs.Summary.clock;
  let span name = List.find (fun r -> r.Obs.Summary.span_name = name) s.Obs.Summary.spans in
  Alcotest.(check int) "outer span counted" 1 (span "outer").Obs.Summary.span_count;
  Alcotest.(check int) "errored span still counted" 1 (span "boom").Obs.Summary.span_count;
  Alcotest.(check (list (pair string int))) "counters" [ ("seen", 2) ] s.Obs.Summary.counters;
  Alcotest.(check bool) "event tallied at warn" true
    (List.exists
       (fun e -> e.Obs.Summary.event_name = "warned" && e.Obs.Summary.event_level = "warn" && e.Obs.Summary.event_count = 1)
       s.Obs.Summary.events)

let test_summary_load_errors () =
  (match Obs.Summary.load "/nonexistent/obs.jsonl" with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error e -> Alcotest.(check bool) "missing file error names the path" true (contains e "/nonexistent/obs.jsonl"));
  let path = Filename.temp_file "obs" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"v\":1,\"ev\":\"start\",\"clock\":\"wall\",\"t\":0.0}\nnot json\n";
  close_out oc;
  (match Obs.Summary.load path with
  | Ok _ -> Alcotest.fail "expected an error for a malformed line"
  | Error e -> Alcotest.(check bool) "parse error names the line" true (contains e ":2:"));
  Sys.remove path

(* --- merging and event sampling -------------------------------------------- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let with_trace_file records f =
  let path = Filename.temp_file "obs_merge" ".jsonl" in
  write_lines path (List.map Obs.Json.to_string records);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_summary_merge () =
  let s = ok_exn (Obs.Summary.of_records (run_demo_trace ())) in
  let m = Obs.Summary.merge s s in
  Alcotest.(check int) "records sum" (2 * s.Obs.Summary.records) m.Obs.Summary.records;
  Alcotest.(check (list (pair string int))) "counters sum by key" [ ("seen", 4) ] m.Obs.Summary.counters;
  let span name l = List.find (fun r -> r.Obs.Summary.span_name = name) l in
  Alcotest.(check int) "span counts sum" 2 (span "outer" m.Obs.Summary.spans).Obs.Summary.span_count;
  Alcotest.(check bool) "span max is max, not sum" true
    ((span "outer" m.Obs.Summary.spans).Obs.Summary.span_max = (span "outer" s.Obs.Summary.spans).Obs.Summary.span_max);
  Alcotest.(check (option string)) "same clocks stay named" (Some "logical") m.Obs.Summary.clock;
  let wall =
    ok_exn
      (Obs.Summary.of_records [ Obs.Json.Obj [ ("v", Obs.Json.Int 1); ("ev", Obs.Json.String "start"); ("clock", Obs.Json.String "wall") ] ])
  in
  Alcotest.(check (option string)) "clock conflict reported as mixed" (Some "mixed")
    (Obs.Summary.merge s wall).Obs.Summary.clock

let test_summary_merge_files () =
  let records = run_demo_trace () in
  with_trace_file records @@ fun a ->
  with_trace_file records @@ fun b ->
  let m = ok_exn (Obs.Summary.merge_files [ a; b ]) in
  Alcotest.(check (list (pair string int))) "two workers' counters fold" [ ("seen", 4) ] m.Obs.Summary.counters;
  (match Obs.Summary.merge_files [] with
  | Ok _ -> Alcotest.fail "merge_files [] must be an error"
  | Error e -> Alcotest.(check bool) "empty merge error is typed" true (contains e "no traces"));
  match Obs.Summary.merge_files [ a; "/nonexistent/obs.jsonl" ] with
  | Ok _ -> Alcotest.fail "missing file must fail the merge"
  | Error e -> Alcotest.(check bool) "missing file named" true (contains e "/nonexistent/obs.jsonl")

let test_summary_merge_histograms () =
  let metrics buckets count sum =
    Printf.sprintf
      "{\"v\":1,\"ev\":\"metrics\",\"histograms\":{\"h\":{\"count\":%d,\"sum\":%f,\"min\":0.5,\"max\":2.0,\"overflow\":1,\"buckets\":[%s]}}}"
      count sum
      (String.concat "," (List.map (fun (le, c) -> Printf.sprintf "{\"le\":%f,\"count\":%d}" le c) buckets))
  in
  let start = "{\"v\":1,\"ev\":\"start\",\"clock\":\"logical\"}" in
  let pa = Filename.temp_file "obs_hist" ".jsonl" and pb = Filename.temp_file "obs_hist" ".jsonl" in
  write_lines pa [ start; metrics [ (1.0, 2); (2.0, 3) ] 5 4.0 ];
  write_lines pb [ start; metrics [ (2.0, 1); (4.0, 6) ] 7 9.0 ];
  Fun.protect
    ~finally:(fun () ->
      Sys.remove pa;
      Sys.remove pb)
    (fun () ->
      let m = ok_exn (Obs.Summary.merge_files [ pa; pb ]) in
      match m.Obs.Summary.histograms with
      | [ h ] ->
          Alcotest.(check int) "hist counts sum" 12 h.Obs.Summary.hist_count;
          Alcotest.(check (float 1e-9)) "hist sums add" 13.0 h.Obs.Summary.hist_sum;
          Alcotest.(check int) "overflow sums" 2 h.Obs.Summary.hist_overflow;
          Alcotest.(check (list (pair (float 1e-9) int))) "buckets union by bound"
            [ (1.0, 2); (2.0, 4); (4.0, 6) ] h.Obs.Summary.hist_buckets
      | l -> Alcotest.failf "expected one merged histogram, got %d" (List.length l))

let test_summary_event_sampling () =
  let sink, drain = Obs.Sink.memory () in
  let obs = Obs.Ctx.create ~clock:(Obs.Clock.logical ()) ~sink () in
  Obs.Ctx.span obs "work" (fun () ->
      for _ = 1 to 9 do
        Obs.Ctx.event obs "tick"
      done);
  Obs.Ctx.close obs;
  with_trace_file (drain ()) @@ fun path ->
  let exact = ok_exn (Obs.Summary.load path) in
  let sampled = ok_exn (Obs.Summary.load ~sample_events:3 path) in
  Alcotest.(check int) "sampled-out lines still counted as records" exact.Obs.Summary.records
    sampled.Obs.Summary.records;
  let count s = (List.find (fun e -> e.Obs.Summary.event_name = "tick") s.Obs.Summary.events).Obs.Summary.event_count in
  Alcotest.(check int) "kept events carry the sampling weight" (count exact) (count sampled);
  let span_count s = (List.find (fun r -> r.Obs.Summary.span_name = "work") s.Obs.Summary.spans).Obs.Summary.span_count in
  Alcotest.(check int) "spans are never sampled" (span_count exact) (span_count sampled);
  Alcotest.(check bool) "sample_events must be positive" true
    (match Obs.Summary.load ~sample_events:0 path with
    | (exception Invalid_argument _) -> true
    | _ -> false)

(* --- golden summary --------------------------------------------------------- *)

let demo_summary = lazy (Reveal.Experiment.obs_summary_demo Reveal.Experiment.obs_golden_config)

let test_golden_summary () =
  Alcotest.(check string) "logical-clock obs summary is bit-identical to the golden"
    (read_file "golden/obs_summary.txt") (Lazy.force demo_summary)

let test_summary_covers_stages () =
  let text = Lazy.force demo_summary in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " span present") true (contains text name))
    [
      "profiling.calibrate";
      "profiling.acquire";
      "profiling.build";
      "campaign.run";
      "campaign.batch";
      "stage.acquire";
      "stage.segment";
      "stage.classify";
      "stage.tally";
      "sink.integrate";
      "grade.confident";
      "classifier.confidence";
      "sink.bikz_with_hints";
    ]

let suite =
  [
    ("json parse: scalars and containers", `Quick, test_parse_scalars);
    ("json parse: errors carry offsets", `Quick, test_parse_errors);
    ("json accessors", `Quick, test_accessors);
    QCheck_alcotest.to_alcotest codec_roundtrip;
    ("clocks: logical ticks, wall monotone", `Quick, test_clocks);
    ("metrics: counters and gauges", `Quick, test_counters_and_gauges);
    ("metrics: histogram bucket boundaries", `Quick, test_histogram_boundaries);
    ("metrics: snapshot shape", `Quick, test_snapshot_shape);
    ("metrics: bucketed quantile estimation", `Quick, test_quantiles);
    ("sink tee: both destinations see one sequence", `Quick, test_sink_tee);
    ("sink stream: ordered, non-blocking, drops counted", `Quick, test_sink_stream);
    ("sink ring: wraparound and flight dump shape", `Quick, test_sink_ring);
    ("disabled context is a no-op", `Quick, test_disabled_noop);
    ("disabled campaign registers no instrument", `Quick, test_disabled_campaign_registers_nothing);
    ("event stream shape", `Quick, test_event_stream);
    ("event codec round-trip", `Quick, test_event_codec_roundtrip);
    ("summary aggregation", `Quick, test_summary_of_records);
    ("summary load errors", `Quick, test_summary_load_errors);
    ("summary merge combines sections", `Quick, test_summary_merge);
    ("summary merge_files", `Quick, test_summary_merge_files);
    ("summary merge: histogram buckets union", `Quick, test_summary_merge_histograms);
    ("summary event sampling", `Quick, test_summary_event_sampling);
    ("golden: obs summary (logical clock)", `Quick, test_golden_summary);
    ("summary covers every stage", `Quick, test_summary_covers_stages);
  ]
