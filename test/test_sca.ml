(* Segmentation, POI selection, templates, confusion bookkeeping. *)

let rng () = Mathkit.Prng.create ~seed:31337L ()

(* --- Segment -------------------------------------------------------------- *)

let fv = Mathkit.Fvec.of_array

(* Synthetic trace: quiet level 10, bursts at 25. *)
let synthetic_trace ~bursts ~quiet_len ~burst_len =
  let parts =
    List.concat_map
      (fun _ -> [ Array.make quiet_len 10.0; Array.make burst_len 25.0 ])
      (List.init bursts (fun i -> i))
  in
  Array.concat (parts @ [ Array.make quiet_len 10.0 ])

let test_segment_finds_bursts () =
  let t = synthetic_trace ~bursts:3 ~quiet_len:200 ~burst_len:30 in
  let bursts = Sca.Segment.burst_regions_fv Sca.Segment.default (fv t) in
  Alcotest.(check int) "three bursts" 3 (Array.length bursts)

let test_segment_windows_between_bursts () =
  let t = synthetic_trace ~bursts:3 ~quiet_len:200 ~burst_len:30 in
  let wins = Sca.Segment.windows_fv Sca.Segment.default (fv t) in
  Alcotest.(check int) "three windows" 3 (Array.length wins);
  Array.iteri
    (fun i w ->
      Alcotest.(check bool) (Printf.sprintf "window %d ordered" i) true (w.Sca.Segment.start < w.Sca.Segment.stop))
    wins;
  (* middle windows span the quiet region *)
  let w = wins.(0) in
  Alcotest.(check bool) "covers quiet gap" true (w.Sca.Segment.stop - w.Sca.Segment.start > 150)

let test_segment_merges_close_runs () =
  (* two high runs separated by a gap smaller than merge_gap: one burst *)
  let t =
    Array.concat
      [ Array.make 200 10.0; Array.make 20 25.0; Array.make 30 10.0; Array.make 20 25.0; Array.make 200 10.0 ]
  in
  let bursts = Sca.Segment.burst_regions_fv Sca.Segment.default (fv t) in
  Alcotest.(check int) "merged" 1 (Array.length bursts)

let test_segment_ignores_slivers () =
  (* a 1-sample spike in the quiet zone must not create a burst or
     shift a boundary *)
  let t = synthetic_trace ~bursts:2 ~quiet_len:300 ~burst_len:30 in
  t.(400) <- 30.0;
  (* sliver in the first window, away from boundaries *)
  let bursts = Sca.Segment.burst_regions_fv { Sca.Segment.default with Sca.Segment.smooth_radius = 0 } (fv t) in
  Alcotest.(check int) "still two bursts" 2 (Array.length bursts)

let test_segment_boundary_sliver_does_not_shift () =
  let t = synthetic_trace ~bursts:2 ~quiet_len:300 ~burst_len:30 in
  let cfg = { Sca.Segment.default with Sca.Segment.smooth_radius = 0 } in
  let before = Sca.Segment.burst_regions_fv cfg (fv t) in
  (* data-dependent spike right after the first burst *)
  let spike_pos = before.(0).Sca.Segment.stop + 1 in
  t.(spike_pos) <- 30.0;
  let after = Sca.Segment.burst_regions_fv cfg (fv t) in
  Alcotest.(check int) "burst end unchanged" before.(0).Sca.Segment.stop after.(0).Sca.Segment.stop

let test_segment_absolute_threshold () =
  let t = synthetic_trace ~bursts:2 ~quiet_len:200 ~burst_len:30 in
  let cfg = { Sca.Segment.default with Sca.Segment.threshold = Sca.Segment.Absolute 18.0 } in
  Alcotest.(check int) "two bursts" 2 (Array.length (Sca.Segment.burst_regions_fv cfg (fv t)))

let test_segment_smooth () =
  let s = Sca.Segment.smooth_fv 1 (fv [| 0.0; 3.0; 0.0 |]) in
  Alcotest.(check (float 1e-9)) "center" 1.0 (Mathkit.Fvec.get s 1);
  Alcotest.(check (float 1e-9)) "edge" 1.5 (Mathkit.Fvec.get s 0)

let test_segment_empty () =
  Alcotest.(check int) "empty trace" 0 (Array.length (Sca.Segment.burst_regions_fv Sca.Segment.default (fv [||])))

let test_vectorize_pads () =
  let samples = Mathkit.Fvec.of_array (Array.init 100 float_of_int) in
  let wins = [| { Sca.Segment.start = 90; stop = 95 } |] in
  let v = (Sca.Segment.views samples wins ~length:10).(0) in
  Alcotest.(check (float 0.0)) "real sample" 90.0 (Mathkit.Fvec.get v 0);
  Alcotest.(check (float 0.0)) "padded" 0.0 (Mathkit.Fvec.get v 7)

(* --- Sosd ------------------------------------------------------------------- *)

let test_sosd_scores_peak_at_difference () =
  let class_a = Array.init 20 (fun _ -> [| 1.0; 5.0; 1.0 |]) in
  let class_b = Array.init 20 (fun _ -> [| 1.0; 9.0; 1.0 |]) in
  let scores = Sca.Sosd.scores [| class_a; class_b |] in
  Alcotest.(check int) "peak at index 1" 1 (Mathkit.Stats.argmax scores);
  Alcotest.(check (float 1e-9)) "score = diff^2" 16.0 scores.(1)

let test_sost_suppresses_noisy_positions () =
  let g = rng () in
  (* position 0: mean difference 2 but huge within-class variance;
     position 1: mean difference 0.5, zero variance.  SOST must prefer
     position 1, SOSD position 0. *)
  let mk offset =
    Array.init 200 (fun _ -> [| offset +. (10.0 *. (Mathkit.Prng.float g -. 0.5)); offset /. 4.0 |])
  in
  let classes = [| mk 0.0; mk 2.0 |] in
  let sosd = Sca.Sosd.scores classes in
  let sost = Sca.Sosd.scores_t classes in
  Alcotest.(check int) "sosd picks raw diff" 0 (Mathkit.Stats.argmax sosd);
  Alcotest.(check int) "sost picks stable diff" 1 (Mathkit.Stats.argmax sost)

let test_sosd_select_spacing () =
  let scores = [| 10.0; 9.0; 8.0; 7.0; 1.0; 0.5; 6.0 |] in
  let pois = Sca.Sosd.select ~count:2 scores in
  Alcotest.(check (array int)) "spaced" [| 0; 3 |] pois

let test_sosd_select_sorted () =
  (* greedy order 4, 7, 0: each at least 3 samples from the others *)
  let scores = [| 7.0; 1.0; 2.0; 3.0; 9.0; 0.5; 0.2; 8.0 |] in
  let pois = Sca.Sosd.select ~count:3 scores in
  Alcotest.(check int) "three picks" 3 (Array.length pois);
  let sorted = Array.copy pois in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "ascending" sorted pois

let test_sosd_pick () =
  Alcotest.(check (array (float 0.0))) "projection" [| 5.0; 7.0 |] (Sca.Sosd.pick [| 4.0; 5.0; 6.0; 7.0 |] [| 1; 3 |])

(* --- Template ---------------------------------------------------------------- *)

let gaussian_class g ~mu ~sigma ~count ~dim =
  let p = Mathkit.Gaussian.polar () in
  Array.init count (fun _ -> Array.init dim (fun j -> Mathkit.Gaussian.normal p g ~mu:mu.(j) ~sigma))

(* single-window scoring through a fresh scratch *)
let template_classify t x = Sca.Template.classify_fv t (Sca.Template.make_scratch t) (Mathkit.Fvec.of_array x)

(* the flat-prior posterior row [classify_fv] takes its argmax of *)
let template_posterior t x =
  let log_prior = Sca.Template.log_prior t (Array.map (fun _ -> 1.0) t.Sca.Template.labels) in
  (Sca.Template.scores_fv ~log_prior t (Sca.Template.make_scratch t) (Mathkit.Fvec.of_array x)).Sca.Template.s_post

let test_template_classifies_separated_classes () =
  let g = rng () in
  let c0 = gaussian_class g ~mu:[| 0.0; 0.0 |] ~sigma:0.5 ~count:200 ~dim:2 in
  let c1 = gaussian_class g ~mu:[| 3.0; 3.0 |] ~sigma:0.5 ~count:200 ~dim:2 in
  let t = Sca.Template.build ~pois:[| 0; 1 |] [ (0, c0); (1, c1) ] in
  let correct = ref 0 in
  for _ = 1 to 200 do
    let x = (gaussian_class g ~mu:[| 0.0; 0.0 |] ~sigma:0.5 ~count:1 ~dim:2).(0) in
    if template_classify t x = 0 then incr correct;
    let y = (gaussian_class g ~mu:[| 3.0; 3.0 |] ~sigma:0.5 ~count:1 ~dim:2).(0) in
    if template_classify t y = 1 then incr correct
  done;
  Alcotest.(check bool) "nearly all correct" true (!correct > 390)

let test_template_posterior_sums_to_one () =
  let g = rng () in
  let c0 = gaussian_class g ~mu:[| 0.0 |] ~sigma:1.0 ~count:100 ~dim:1 in
  let c1 = gaussian_class g ~mu:[| 2.0 |] ~sigma:1.0 ~count:100 ~dim:1 in
  let t = Sca.Template.build ~pois:[| 0 |] [ (0, c0); (1, c1) ] in
  let p = template_posterior t [| 1.0 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p)

let test_template_posterior_with_priors () =
  let g = rng () in
  let c0 = gaussian_class g ~mu:[| 0.0 |] ~sigma:1.0 ~count:100 ~dim:1 in
  let c1 = gaussian_class g ~mu:[| 0.0 |] ~sigma:1.0 ~count:100 ~dim:1 in
  (* identical classes: posterior = prior *)
  let t = Sca.Template.build ~pois:[| 0 |] [ (0, c0); (1, c1) ] in
  let p =
    Sca.Template.priored_posterior_fv
      ~log_prior:(Sca.Template.log_prior t [| 0.9; 0.1 |])
      t (Sca.Template.make_scratch t)
      (Mathkit.Fvec.of_array [| 0.0 |])
  in
  Alcotest.(check bool) "prior dominates" true (p.(0) > 0.8)

(* A prior's length is checked once, where its log row is built, and
   the error names that function. *)
let test_template_prior_length_message () =
  let t = Sca.Template.build ~pois:[| 0 |] [ (0, [| [| 0.0 |]; [| 1.0 |] |]); (1, [| [| 2.0 |]; [| 3.0 |] |]) ] in
  Alcotest.check_raises "log_prior" (Invalid_argument "Template.log_prior: prior length mismatch") (fun () ->
      ignore (Sca.Template.log_prior t [| 1.0 |]))

let test_template_needs_two_rows () =
  Alcotest.check_raises "one row" (Invalid_argument "Template.build: class 0 needs >= 2 profiling vectors")
    (fun () -> ignore (Sca.Template.build ~pois:[| 0 |] [ (0, [| [| 1.0 |] |]) ]))

(* --- Confusion ------------------------------------------------------------------ *)

let test_confusion_counts () =
  let c = Sca.Confusion.create ~labels:[| -1; 0; 1 |] in
  Sca.Confusion.add c ~actual:1 ~predicted:1;
  Sca.Confusion.add c ~actual:1 ~predicted:0;
  Sca.Confusion.add c ~actual:0 ~predicted:0;
  Alcotest.(check int) "count" 1 (Sca.Confusion.count c ~actual:1 ~predicted:0);
  Alcotest.(check (float 1e-9)) "column percent" 50.0 (Sca.Confusion.column_percent c ~actual:1 ~predicted:1)

let test_confusion_unknown_label () =
  let c = Sca.Confusion.create ~labels:[| 0; 1 |] in
  Alcotest.check_raises "unknown" (Invalid_argument "Confusion: unknown label 5") (fun () ->
      Sca.Confusion.add c ~actual:5 ~predicted:0)

let test_confusion_render () =
  let c = Sca.Confusion.create ~labels:[| -1; 0; 1 |] in
  Sca.Confusion.add c ~actual:(-1) ~predicted:(-1);
  Sca.Confusion.add c ~actual:1 ~predicted:(-1);
  let s = Sca.Confusion.render c in
  Alcotest.(check bool) "mentions actual" true (String.length s > 0 && String.contains s '<')

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("segment finds bursts", test_segment_finds_bursts);
      ("segment windows between bursts", test_segment_windows_between_bursts);
      ("segment merges close runs", test_segment_merges_close_runs);
      ("segment ignores slivers", test_segment_ignores_slivers);
      ("segment boundary sliver stable", test_segment_boundary_sliver_does_not_shift);
      ("segment absolute threshold", test_segment_absolute_threshold);
      ("segment smoothing", test_segment_smooth);
      ("segment empty trace", test_segment_empty);
      ("vectorize pads", test_vectorize_pads);
      ("sosd peak at difference", test_sosd_scores_peak_at_difference);
      ("sost suppresses noisy positions", test_sost_suppresses_noisy_positions);
      ("sosd select spacing", test_sosd_select_spacing);
      ("sosd select sorted", test_sosd_select_sorted);
      ("sosd pick", test_sosd_pick);
      ("template separated classes", test_template_classifies_separated_classes);
      ("template posterior sums to 1", test_template_posterior_sums_to_one);
      ("template priors", test_template_posterior_with_priors);
      ("template needs two rows", test_template_needs_two_rows);
      ("template prior length errors name their function", test_template_prior_length_message);
      ("confusion counts", test_confusion_counts);
      ("confusion unknown label", test_confusion_unknown_label);
      ("confusion render", test_confusion_render);
    ]

(* --- Tvla --------------------------------------------------------------------- *)

let gaussian_rows g ~mu ~sigma ~count ~dim =
  let p = Mathkit.Gaussian.polar () in
  Array.init count (fun _ -> Array.init dim (fun j -> Mathkit.Gaussian.normal p g ~mu:mu.(j) ~sigma))

let test_tvla_detects_mean_shift () =
  let g = rng () in
  let fixed = gaussian_rows g ~mu:[| 0.0; 5.0; 0.0 |] ~sigma:1.0 ~count:500 ~dim:3 in
  let random = gaussian_rows g ~mu:[| 0.0; 0.0; 0.0 |] ~sigma:1.0 ~count:500 ~dim:3 in
  let ts = Sca.Tvla.t_statistics fixed random in
  Alcotest.(check bool) "leak flagged" true (Float.abs ts.(1) > Sca.Tvla.threshold);
  Alcotest.(check bool) "quiet samples pass" true (Float.abs ts.(0) < Sca.Tvla.threshold);
  Alcotest.(check (array int)) "leaky point list" [| 1 |] (Sca.Tvla.leaky_points ts);
  Alcotest.(check bool) "max |t|" true (Sca.Tvla.max_abs_t ts = Float.abs ts.(1))

let test_tvla_no_false_positive () =
  let g = rng () in
  let a = gaussian_rows g ~mu:[| 1.0; 1.0 |] ~sigma:1.0 ~count:400 ~dim:2 in
  let b = gaussian_rows g ~mu:[| 1.0; 1.0 |] ~sigma:1.0 ~count:400 ~dim:2 in
  Alcotest.(check int) "no leaks on identical distributions" 0
    (Array.length (Sca.Tvla.leaky_points (Sca.Tvla.t_statistics a b)))

let test_tvla_second_order () =
  let g = rng () in
  (* same means, different variances: invisible to first order,
     visible to second order *)
  let fixed = gaussian_rows g ~mu:[| 0.0 |] ~sigma:3.0 ~count:800 ~dim:1 in
  let random = gaussian_rows g ~mu:[| 0.0 |] ~sigma:1.0 ~count:800 ~dim:1 in
  let t1 = Sca.Tvla.max_abs_t (Sca.Tvla.t_statistics fixed random) in
  let t2 = Sca.Tvla.max_abs_t (Sca.Tvla.second_order fixed random) in
  Alcotest.(check bool) "second order sees it" true (t2 > Sca.Tvla.threshold);
  Alcotest.(check bool) "second order stronger than first" true (t2 > t1)

let test_tvla_needs_two_traces () =
  Alcotest.check_raises "tiny set" (Invalid_argument "Tvla: need at least 2 traces per set") (fun () ->
      ignore (Sca.Tvla.t_statistics [| [| 1.0 |] |] [| [| 1.0 |]; [| 2.0 |] |]))

(* --- Cpa ----------------------------------------------------------------------- *)

let test_cpa_finds_correlated_sample () =
  let g = rng () in
  let n = 400 in
  let secrets = Array.init n (fun _ -> Mathkit.Prng.int g 256) in
  let p = Mathkit.Gaussian.polar () in
  (* sample 1 leaks HW(secret), others are noise *)
  let traces =
    Array.init n (fun i ->
        [|
          Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma:1.0;
          float_of_int (Power.Leakage.hamming_weight secrets.(i)) +. Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma:0.5;
          Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma:1.0;
        |])
  in
  let hw = Array.map (fun v -> float_of_int (Power.Leakage.hamming_weight v)) secrets in
  let rho = Sca.Cpa.correlation_trace traces hw in
  Alcotest.(check bool) "peak at the leaking sample" true (Float.abs rho.(1) > 0.8);
  Alcotest.(check bool) "noise uncorrelated" true (Float.abs rho.(0) < 0.2)

let test_cpa_fails_on_fresh_noise () =
  (* the paper's point: with a fresh secret per trace there is nothing
     to accumulate — a wrong constant hypothesis correlates as well as
     any other *)
  let g = rng () in
  let n = 300 in
  let p = Mathkit.Gaussian.polar () in
  let fresh = Array.init n (fun _ -> Mathkit.Prng.int g 256) in
  let traces =
    Array.init n (fun i ->
        [| float_of_int (Power.Leakage.hamming_weight fresh.(i)) +. Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma:0.5 |])
  in
  (* hypotheses built from an unrelated, constant guess of the secret *)
  let unrelated k = Array.init n (fun i -> float_of_int (Power.Leakage.hamming_weight ((i * 31) lxor k))) in
  let peak k = Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0.0 (Sca.Cpa.correlation_trace traces (unrelated k)) in
  let rho = List.fold_left (fun acc k -> Float.max acc (peak k)) 0.0 (List.init 16 Fun.id) in
  Alcotest.(check bool) "no candidate correlates" true (rho < 0.3)

let test_cpa_poi_selection () =
  let g = rng () in
  let n = 400 in
  let labels = Array.init n (fun _ -> Mathkit.Prng.int_in g (-14) 14) in
  let p = Mathkit.Gaussian.polar () in
  let traces =
    Array.init n (fun i ->
        Array.init 10 (fun t ->
            let signal = if t = 4 then float_of_int (Power.Leakage.hamming_weight labels.(i)) else 0.0 in
            signal +. Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma:0.5))
  in
  let pois = Sca.Cpa.correlation_poi ~count:1 traces labels in
  Alcotest.(check (array int)) "picks the leaking sample" [| 4 |] pois

let extension_cases =
  [
    ("tvla detects mean shift", test_tvla_detects_mean_shift);
    ("tvla no false positive", test_tvla_no_false_positive);
    ("tvla second order", test_tvla_second_order);
    ("tvla needs two traces", test_tvla_needs_two_traces);
    ("cpa finds correlated sample", test_cpa_finds_correlated_sample);
    ("cpa fails on fresh noise", test_cpa_fails_on_fresh_noise);
    ("cpa poi selection", test_cpa_poi_selection);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) extension_cases

(* --- Pca ------------------------------------------------------------------- *)

let test_pca_separates_class_means () =
  let g = rng () in
  (* two classes separated along a diagonal direction in 4-d *)
  let mk offset =
    gaussian_rows g ~mu:[| offset; -.offset; 0.0; 0.0 |] ~sigma:0.3 ~count:100 ~dim:4
  in
  let classes = [ (0, mk 0.0); (1, mk 3.0) ] in
  let p = Sca.Pca.fit ~k:1 classes in
  Alcotest.(check int) "one component" 1 (Sca.Pca.components p);
  (* projected class means must be well separated *)
  let proj c = Mathkit.Stats.mean_a (Array.map (fun v -> v.(0)) (Array.map (Sca.Pca.transform p) c)) in
  let d = Float.abs (proj (mk 0.0) -. proj (mk 3.0)) in
  Alcotest.(check bool) "separated in subspace" true (d > 3.0)

let test_pca_template_classifies () =
  let g = rng () in
  let mk offset = gaussian_rows g ~mu:[| offset; 0.0; offset /. 2.0 |] ~sigma:0.4 ~count:150 ~dim:3 in
  let classes = [ (0, mk 0.0); (1, mk 2.0); (2, mk 4.0) ] in
  let p = Sca.Pca.fit ~k:2 classes in
  let template =
    Sca.Template.build ~pois:[||]
      (List.map (fun (l, rows) -> (l, Array.map (Sca.Pca.transform p) rows)) classes)
  in
  let correct = ref 0 in
  for _ = 1 to 100 do
    List.iter
      (fun (label, offset) ->
        let x = (mk offset).(0) in
        if template_classify template (Sca.Pca.transform p x) = label then incr correct)
      [ (0, 0.0); (1, 2.0); (2, 4.0) ]
  done;
  Alcotest.(check bool) "PCA-space templates work" true (!correct > 280)

let test_pca_needs_two_classes () =
  Alcotest.check_raises "one class" (Invalid_argument "Pca.fit: need at least two classes") (fun () ->
      ignore (Sca.Pca.fit [ (0, [| [| 1.0 |] |]) ]))

let pca_cases =
  [
    ("pca separates class means", test_pca_separates_class_means);
    ("pca-space templates classify", test_pca_template_classifies);
    ("pca needs two classes", test_pca_needs_two_classes);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) pca_cases

(* --- segmentation properties -------------------------------------------------- *)

let segment_qcheck =
  let open QCheck in
  [
    Test.make ~name:"segment: windows are disjoint, ordered, in range" ~count:50 (int_bound 100000)
      (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        (* random bimodal trace: quiet level with random bursts *)
        let n = 1500 + Mathkit.Prng.int g 1000 in
        let t = Array.init n (fun _ -> 10.0 +. Mathkit.Prng.float g) in
        let bursts = 2 + Mathkit.Prng.int g 5 in
        let pos = ref 50 in
        for _ = 1 to bursts do
          let len = 20 + Mathkit.Prng.int g 30 in
          for i = !pos to min (n - 1) (!pos + len) do
            t.(i) <- 25.0 +. Mathkit.Prng.float g
          done;
          pos := !pos + len + 150 + Mathkit.Prng.int g 100
        done;
        let wins = Sca.Segment.windows_fv Sca.Segment.default (fv t) in
        let ok = ref true in
        Array.iteri
          (fun i w ->
            if w.Sca.Segment.start > w.Sca.Segment.stop then ok := false;
            if w.Sca.Segment.start < 0 || w.Sca.Segment.stop > n then ok := false;
            if i > 0 && wins.(i - 1).Sca.Segment.stop > w.Sca.Segment.start then ok := false)
          wins;
        !ok);
    Test.make ~name:"segment: bursts and windows interleave" ~count:50 (int_bound 100000)
      (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        let quiet = 150 + Mathkit.Prng.int g 200 in
        let t =
          Array.concat
            [
              Array.make quiet 10.0;
              Array.make 40 25.0;
              Array.make quiet 10.0;
              Array.make 40 25.0;
              Array.make quiet 10.0;
            ]
        in
        let bursts = Sca.Segment.burst_regions_fv Sca.Segment.default (fv t) in
        let wins = Sca.Segment.windows_fv Sca.Segment.default (fv t) in
        Array.length bursts = Array.length wins
        && Array.for_all2 (fun b w -> b.Sca.Segment.stop = w.Sca.Segment.start) bursts wins);
  ]

(* An absolute threshold is tested on each smoothed sample as it is
   formed; it must find what a threshold scan of the materialised
   [smooth_fv] finds.  Every length from 0 to 2r + 3 is drawn often,
   so the unrolled radius-2 body meets traces it does not fit and
   traces with one or two interior samples.  Samples are a few levels
   (signed zeros included) so smoothed values tie, and a trace may mix
   in NaN, infinities and 1e300-scale values, whose sums overflow or
   cancel unless they run in [smooth_fv]'s order.  The threshold is one
   of the smoothed values, so [>] meets equality, and the trace is a
   view at a nonzero offset. *)
let streaming_case =
  QCheck.Gen.(
    int_range 0 3 >>= fun radius ->
    oneof [ int_range 0 ((2 * radius) + 3); int_range 0 400 ] >>= fun n ->
    quad (return radius) (return n) (int_range 0 12) (pair (int_range 0 6) int))

let streaming_print (radius, n, gap, (min_burst, seed)) =
  Printf.sprintf "radius=%d n=%d merge_gap=%d min_burst=%d seed=%d" radius n gap min_burst seed

let raw_runs s t =
  let runs = ref [] and start = ref (-1) in
  for i = 0 to Mathkit.Fvec.length s - 1 do
    if Mathkit.Fvec.get s i > t then (if !start < 0 then start := i)
    else if !start >= 0 then begin
      runs := { Sca.Segment.start = !start; stop = i } :: !runs;
      start := -1
    end
  done;
  if !start >= 0 then runs := { Sca.Segment.start = !start; stop = Mathkit.Fvec.length s } :: !runs;
  Array.of_list (List.rev !runs)

(* [n] samples after a pad of 3, drawn by [streaming_case]'s rules. *)
let random_trace g n =
  (* in 16ths: how often a sample is extreme; never in a third of the cases *)
  let extreme_rate = [| 0; 1; 6 |].(Mathkit.Prng.int g 3) in
  let extreme () =
    match Mathkit.Prng.int g 5 with
    | 0 -> Float.nan
    | 1 -> Float.infinity
    | 2 -> Float.neg_infinity
    | k -> (if k = 3 then 1e300 else -1e300) *. (1.0 +. Mathkit.Prng.float g)
  in
  let level () =
    if Mathkit.Prng.int g 16 < extreme_rate then extreme ()
    else match Mathkit.Prng.int g 8 with 7 -> -0.0 | 6 -> 20.0 +. Mathkit.Prng.float g | k -> float_of_int k
  in
  let pad = 3 in
  Mathkit.Fvec.sub (fv (Array.init (n + pad) (fun _ -> level ()))) pad n

let streaming_threshold_prop =
  QCheck.Test.make ~name:"segment: streaming threshold = threshold of the materialised smooth_fv" ~count:2000
    (QCheck.make ~print:streaming_print streaming_case)
    (fun (radius, n, merge_gap, (min_burst, seed)) ->
      let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
      let x = random_trace g n in
      let s = Sca.Segment.smooth_fv radius x in
      let t = if n = 0 then 1.0 else Mathkit.Fvec.get s (Mathkit.Prng.int g n) in
      let cfg = { Sca.Segment.threshold = Sca.Segment.Absolute t; smooth_radius = radius; merge_gap; min_burst } in
      let raw = { cfg with Sca.Segment.merge_gap = 0; min_burst = 1 } in
      Sca.Segment.burst_regions_fv raw x = raw_runs s t
      && Sca.Segment.burst_regions_fv cfg x
         = Sca.Segment.burst_regions_fv { cfg with Sca.Segment.smooth_radius = 0 } s)

(* Bursts closer than [merge_gap] merge, so every window but the last,
   which lies between two bursts, spans at least [merge_gap] samples
   and is never empty.  Profiling relies on it: its windows all lie
   between bursts, at the default gap of 55 samples. *)
let window_gap_prop =
  QCheck.Test.make ~name:"segment: a window between two bursts spans at least merge_gap" ~count:500
    (QCheck.make ~print:streaming_print streaming_case)
    (fun (radius, n, merge_gap, (min_burst, seed)) ->
      let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
      let x = random_trace g n in
      let s = Sca.Segment.smooth_fv radius x in
      let t = if n = 0 then 1.0 else Mathkit.Fvec.get s (Mathkit.Prng.int g n) in
      let cfg = { Sca.Segment.threshold = Sca.Segment.Absolute t; smooth_radius = radius; merge_gap; min_burst } in
      let wins = Sca.Segment.windows_fv cfg x in
      let between = Array.sub wins 0 (Int.max 0 (Array.length wins - 1)) in
      Array.for_all (fun w -> w.Sca.Segment.stop - w.Sca.Segment.start >= Int.max 1 merge_gap) between)

let segment_qcheck = segment_qcheck @ [ streaming_threshold_prop; window_gap_prop ]

let suite = suite @ List.map QCheck_alcotest.to_alcotest segment_qcheck

(* At an absolute threshold the scan reads every sample unboxed, in the
   unrolled radius-2 body and in [smoothed] alike: a boxed read would
   cost 10 minor words a sample (DESIGN §16.1), the runs list costs a
   few words a run. *)
let test_burst_regions_allocation () =
  let n = 100_000 in
  let g = rng () in
  let x = fv (Array.init n (fun i -> (if i mod 1000 < 300 then 25.0 else 10.0) +. Mathkit.Prng.float g)) in
  List.iter
    (fun radius ->
      let cfg =
        { Sca.Segment.default with Sca.Segment.threshold = Sca.Segment.Absolute 17.5; smooth_radius = radius }
      in
      ignore (Sca.Segment.burst_regions_fv cfg x);
      let before = Gc.minor_words () in
      let bursts = Sca.Segment.burst_regions_fv cfg x in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (Printf.sprintf "radius %d: bursts" radius) 100 (Array.length bursts);
      if words >= float_of_int n then Alcotest.failf "radius %d: %.0f minor words for %d samples" radius words n)
    [ 0; 1; 2; 3 ]

let suite =
  suite @ [ Alcotest.test_case "segment: absolute-threshold scan allocates under a word a sample" `Quick test_burst_regions_allocation ]

(* --- resilient segmentation -------------------------------------------- *)

let erase_range samples lo len =
  let t = Array.copy samples in
  for i = lo to min (Array.length t - 1) (lo + len - 1) do
    t.(i) <- 10.0
  done;
  t

let inject_burst samples lo len =
  let t = Array.copy samples in
  for i = lo to min (Array.length t - 1) (lo + len - 1) do
    t.(i) <- 25.0
  done;
  t

let test_segment_resilient_empty () =
  Alcotest.(check bool) "typed error" true (Sca.Segment.segment_fv Sca.Segment.default ~expected:3 (fv [||]) = Error Sca.Segment.Empty_trace)

let test_segment_resilient_flat () =
  Alcotest.(check bool) "typed error" true
    (Sca.Segment.segment_fv Sca.Segment.default ~expected:3 (fv (Array.make 2000 10.0)) = Error Sca.Segment.Flat_trace)

let test_segment_resilient_invalid_expected () =
  Alcotest.check_raises "expected must be positive" (Invalid_argument "Segment.segment_fv: expected must be positive")
    (fun () -> ignore (Sca.Segment.segment_fv Sca.Segment.default ~expected:0 (fv [| 1.0 |])))

let test_segment_resilient_clean_matches_windows () =
  let t = synthetic_trace ~bursts:5 ~quiet_len:200 ~burst_len:30 in
  match Sca.Segment.segment_fv Sca.Segment.default ~expected:5 (fv t) with
  | Error e -> Alcotest.fail (Sca.Segment.error_to_string e)
  | Ok seg ->
      Alcotest.(check bool) "same windows as the classic path" true (seg.Sca.Segment.wins = Sca.Segment.windows_fv Sca.Segment.default (fv t));
      Alcotest.(check bool) "all Clean" true (Array.for_all (fun q -> q = Sca.Segment.Clean) seg.Sca.Segment.quality)

let test_segment_resilient_count_mismatch () =
  let t = synthetic_trace ~bursts:3 ~quiet_len:200 ~burst_len:30 in
  match Sca.Segment.segment_fv Sca.Segment.default ~expected:9 (fv t) with
  | Error (Sca.Segment.Count_mismatch { expected = 9; found }) ->
      Alcotest.(check bool) "reports what it found" true (found < 9)
  | Ok _ | Error _ -> Alcotest.fail "hopeless count mismatch not reported"

let test_segment_resilient_missed_burst () =
  let t = synthetic_trace ~bursts:5 ~quiet_len:200 ~burst_len:30 in
  (* erase the middle burst: starts at 3*200 + 2*30 *)
  let t = erase_range t 660 30 in
  Alcotest.(check int) "one burst really missing" 4 (Array.length (Sca.Segment.burst_regions_fv Sca.Segment.default (fv t)));
  match Sca.Segment.segment_fv Sca.Segment.default ~expected:5 (fv t) with
  | Error e -> Alcotest.fail (Sca.Segment.error_to_string e)
  | Ok seg ->
      Alcotest.(check int) "resynchronised to the expected count" 5 (Array.length seg.Sca.Segment.wins);
      Alcotest.(check bool) "repair is flagged" true
        (Array.exists (fun q -> q = Sca.Segment.Resynced) seg.Sca.Segment.quality);
      Alcotest.(check bool) "but not everywhere" true
        (Array.exists (fun q -> q = Sca.Segment.Clean) seg.Sca.Segment.quality)

let test_segment_resilient_spurious_burst () =
  let t = synthetic_trace ~bursts:4 ~quiet_len:200 ~burst_len:30 in
  (* a glitch masquerading as a (short) distribution call inside window 1 *)
  let t = inject_burst t 540 8 in
  Alcotest.(check int) "glitch detected as a burst" 5 (Array.length (Sca.Segment.burst_regions_fv Sca.Segment.default (fv t)));
  match Sca.Segment.segment_fv Sca.Segment.default ~expected:4 (fv t) with
  | Error e -> Alcotest.fail (Sca.Segment.error_to_string e)
  | Ok seg ->
      Alcotest.(check int) "spurious burst dropped" 4 (Array.length seg.Sca.Segment.wins);
      Alcotest.(check bool) "excision is flagged" true
        (Array.exists (fun q -> q <> Sca.Segment.Clean) seg.Sca.Segment.quality)

let test_segment_auto_threshold_flat_guard () =
  Alcotest.(check (float 1e-9)) "flat trace: threshold at the level" 10.0
    (Sca.Segment.auto_threshold_fv Sca.Segment.default (fv (Array.make 512 10.0)));
  Alcotest.(check (float 1e-9)) "empty trace: zero" 0.0 (Sca.Segment.auto_threshold_fv Sca.Segment.default (fv [||]));
  Alcotest.(check int) "flat trace: no bursts" 0
    (Array.length (Sca.Segment.burst_regions_fv Sca.Segment.default (fv (Array.make 512 10.0))))

let resilient_cases =
  [
    ("segment (resilient) empty trace", test_segment_resilient_empty);
    ("segment (resilient) flat trace", test_segment_resilient_flat);
    ("segment (resilient) invalid expected", test_segment_resilient_invalid_expected);
    ("segment (resilient) clean = classic windows", test_segment_resilient_clean_matches_windows);
    ("segment (resilient) hopeless count mismatch", test_segment_resilient_count_mismatch);
    ("segment (resilient) missed burst resync", test_segment_resilient_missed_burst);
    ("segment (resilient) spurious burst excision", test_segment_resilient_spurious_burst);
    ("segment auto threshold flat/empty guard", test_segment_auto_threshold_flat_guard);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) resilient_cases

(* --- scoring against the boxed oracles ------------------------------------ *)

(* The library scores windows only through Fvec kernels and the fused
   [grade_fv], in the linear-discriminant form.  [Scoring_oracle]
   implements the same form over boxed [float array]s, deriving center,
   lin and offs itself: every grading quantity and both fit entry
   points must match it bit for bit — checked on IEEE bit patterns over
   randomly drawn windows at the pinned seed 54398, on thirteen labels
   (six classes in each value group).  The oracle's Mahalanobis
   form is the reference the two bound tests after it hold the
   discriminant form to. *)

let scoring_fixture =
  lazy
    (let g = Mathkit.Prng.create ~seed:54398L () in
     let dim = 30 in
     let mu_of label = Array.init dim (fun j -> float_of_int (label * ((j mod 5) - 2)) *. 0.6) in
     let classes =
       List.map
         (fun label -> (label, gaussian_rows g ~mu:(mu_of label) ~sigma:0.8 ~count:14 ~dim))
         (List.init 13 (fun i -> i - 6))
     in
     let attack = Sca.Attack.build ~poi_count:6 ~sign_poi_count:4 ~sigma:2.0 classes in
     (attack, Sca.Attack.make_scratch attack, dim))

let scoring_window ~dim seed =
  let g = Mathkit.Prng.create ~seed:(Int64.of_int (54398 + seed)) () in
  let p = Mathkit.Gaussian.polar () in
  let label = Mathkit.Prng.int_in g (-6) 6 in
  Array.init dim (fun j ->
      (float_of_int (label * ((j mod 5) - 2)) *. 0.6) +. Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma:0.8)

let sbits = Int64.bits_of_float

let posterior_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (la, pa) (lb, pb) -> la = lb && sbits pa = sbits pb) a b

let verdict_eq (a : Sca.Attack.verdict) (b : Sca.Attack.verdict) =
  a.Sca.Attack.sign = b.Sca.Attack.sign
  && a.Sca.Attack.value = b.Sca.Attack.value
  && posterior_eq a.Sca.Attack.posterior b.Sca.Attack.posterior

(* A random template with an SPD covariance at the scale of the power
   traces: d POIs, k classes whose means sit a few noise deviations
   apart around a trace-level baseline, optionally all shifted by
   [offset]; and a window drawn near one class mean, at up to four
   times the noise, optionally far off every class (a faulted
   window). *)
let random_template_and_window seed ~d ~k ~offset =
  let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
  let p = Mathkit.Gaussian.polar () in
  let normal sigma = Mathkit.Gaussian.normal p g ~mu:0.0 ~sigma in
  let noise = 0.17 in
  let a = Array.init d (fun _ -> Array.init d (fun _ -> normal 1.0)) in
  let cov =
    Array.init d (fun i ->
        Array.init d (fun j ->
            let acc = ref 0.0 in
            for l = 0 to d - 1 do
              acc := !acc +. (a.(i).(l) *. a.(j).(l))
            done;
            let diag = if i = j then 0.05 +. Mathkit.Prng.float g else 0.0 in
            noise *. noise *. ((!acc /. float_of_int d) +. diag)))
    |> Mathkit.Matrix.of_arrays
  in
  let baseline = Array.init d (fun _ -> offset +. (2.0 *. Mathkit.Prng.float g)) in
  let means = Array.init k (fun _ -> Array.map (fun b -> b +. normal (3.0 *. noise)) baseline) in
  let t =
    Sca.Template.make ~labels:(Array.init k Fun.id) ~means
      ~inv_cov:(Mathkit.Fmat.of_matrix (Mathkit.Linalg.inverse cov))
      ~log_det:(Mathkit.Linalg.logdet cov) ~pois:[||]
  in
  let scale = noise *. (0.25 +. (4.0 *. Mathkit.Prng.float g)) in
  let fault = if Mathkit.Prng.int_in g 0 3 = 0 then 20.0 *. noise else 0.0 in
  let mu = means.(Mathkit.Prng.int_in g 0 (k - 1)) in
  (t, Array.map (fun m -> m +. normal scale +. (fault *. Mathkit.Prng.float g)) mu)

let fv_scoring_qcheck =
  let open QCheck in
  [
    Test.make ~name:"attack: fused grade_fv equals the five separate calls (seed 54398)" ~count:60
      (int_bound 1_000_000)
      (fun seed ->
        let attack, scratch, dim = Lazy.force scoring_fixture in
        let window = scoring_window ~dim seed in
        let wfv = Mathkit.Fvec.of_array window in
        let g = Sca.Attack.grade_fv attack scratch wfv in
        let v = Scoring_oracle.classify_window attack window in
        let sign = v.Sca.Attack.sign in
        let value_fit = sbits (Scoring_oracle.value_fit attack ~sign window) in
        verdict_eq g.Sca.Attack.g_verdict v
        && posterior_eq g.Sca.Attack.g_posterior_all (Scoring_oracle.posterior_all attack window)
        && sbits g.Sca.Attack.g_sign_confidence = sbits (Scoring_oracle.sign_confidence attack window)
        && sbits g.Sca.Attack.g_sign_fit = sbits (Scoring_oracle.sign_fit attack window)
        && sbits g.Sca.Attack.g_value_fit = value_fit
        && sbits (Sca.Attack.sign_fit_fv attack scratch wfv) = sbits (Scoring_oracle.sign_fit attack window)
        && List.for_all
             (fun sign ->
               sbits (Sca.Attack.value_fit_fv attack scratch ~sign wfv)
               = sbits (Scoring_oracle.value_fit attack ~sign window))
             [ -1; 0; 1 ]);
    Test.make ~name:"template: discriminant log likelihoods within 1e-9 of the Mahalanobis form" ~count:300
      (quad (int_bound 1_000_000) (int_range 1 20) (int_range 2 16) bool)
      (fun (seed, d, k, shifted) ->
        let t, x = random_template_and_window seed ~d ~k ~offset:(if shifted then 1e3 else 0.0) in
        let scratch = Sca.Template.make_scratch t in
        let xfv = Mathkit.Fvec.of_array x in
        let ll = Array.copy (Sca.Template.log_likelihoods_fv t scratch xfv) in
        let reference = Scoring_oracle.mahalanobis_log_likelihoods t x in
        let best = Mathkit.Stats.argmax reference in
        Array.for_all2 (fun l r -> Float.abs (l -. r) <= 1e-9 *. (1.0 +. Float.abs r)) ll reference
        && Mathkit.Stats.argmax ll = best
        && Sca.Template.classify_fv t scratch xfv = t.Sca.Template.labels.(best));
  ]

(* Real campaigns, against the Mahalanobis form: on every window of
   two clean and two intensity-0.5 n = 64 traces, the verdict is the
   Mahalanobis two-stage argmax, and each fit falls on the same side of
   the profile's floor as the Mahalanobis fit. *)
let test_campaign_matches_mahalanobis () =
  let device = Reveal.Device.create ~n:64 () in
  let prof = Reveal.Campaign.profile ~per_value:40 device (Mathkit.Prng.create ~seed:54398L ()) in
  let attack = prof.Reveal.Campaign.attack in
  let scratch = Sca.Attack.make_scratch attack in
  let below_floor = ref 0 in
  List.iter
    (fun (name, fault) ->
      let device = Reveal.Device.with_fault device fault in
      for t = 1 to 2 do
        let g = Mathkit.Prng.create ~seed:(Int64.of_int (54398 + t)) () in
        let run = Reveal.Device.run_gaussian device ~scope_rng:g ~sampler_rng:g in
        let samples = Mathkit.Fvec.of_array run.Reveal.Device.trace.Power.Ptrace.samples in
        match Reveal.Pipeline.run_segmenter Reveal.Pipeline.resilient_segmenter prof ~count:64 samples with
        | Error e -> Alcotest.failf "%s trace %d: %s" name t (Sca.Segment.error_to_string e)
        | Ok seg ->
            Array.iteri
              (fun i w ->
                let label what = Printf.sprintf "%s trace %d window %d: %s" name t i what in
                let gr = Sca.Attack.grade_fv attack scratch w in
                let v = gr.Sca.Attack.g_verdict in
                let wa = Mathkit.Fvec.to_array w in
                Alcotest.(check (pair int int))
                  (label "verdict") (Scoring_oracle.mahalanobis_verdict attack wa)
                  (v.Sca.Attack.sign, v.Sca.Attack.value);
                let sign_fit = Scoring_oracle.mahalanobis_sign_fit attack wa in
                let value_fit = Scoring_oracle.mahalanobis_value_fit attack ~sign:v.Sca.Attack.sign wa in
                if sign_fit < prof.Reveal.Campaign.sign_fit_floor then incr below_floor;
                Alcotest.(check bool) (label "sign fit side")
                  (sign_fit < prof.Reveal.Campaign.sign_fit_floor)
                  (gr.Sca.Attack.g_sign_fit < prof.Reveal.Campaign.sign_fit_floor);
                Alcotest.(check bool) (label "value fit side")
                  (value_fit < prof.Reveal.Campaign.value_fit_floor)
                  (gr.Sca.Attack.g_value_fit < prof.Reveal.Campaign.value_fit_floor))
              seg.Reveal.Pipeline.vectors
      done)
    [ ("clean", None); ("intensity 0.5", Some (Power.Fault.of_intensity 0.5)) ];
  (* the faulted traces must put windows below a floor, or the sides
     compared above were never in doubt *)
  Alcotest.(check bool) "some window fails the sign floor" true (!below_floor > 0)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest fv_scoring_qcheck
  @ [
      Alcotest.test_case "attack: campaign verdicts and fit-floor sides equal the Mahalanobis form's (n = 64)" `Quick
        test_campaign_matches_mahalanobis;
    ]
