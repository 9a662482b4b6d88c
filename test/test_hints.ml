(* BKZ cost model and DBDD hint integration. *)

let lwe = Hints.Lwe.seal_128_1024

(* --- Bkz_model --------------------------------------------------------------- *)

let test_delta_decreasing () =
  (* root Hermite factor decreases with block size *)
  let prev = ref (Hints.Bkz_model.delta 2.0) in
  List.iter
    (fun b ->
      let d = Hints.Bkz_model.delta b in
      Alcotest.(check bool) (Printf.sprintf "delta(%g) < delta(prev)" b) true (d < !prev);
      prev := d)
    [ 10.0; 25.0; 40.0; 80.0; 200.0; 400.0 ]

let test_delta_known_values () =
  (* table anchor *)
  Alcotest.(check (float 1e-6)) "delta(2)" 1.02190 (Hints.Bkz_model.delta 2.0);
  Alcotest.(check (float 1e-6)) "delta(40)" 1.01295 (Hints.Bkz_model.delta 40.0);
  (* asymptotic formula spot check: delta(100) ~ 1.0093 *)
  Alcotest.(check bool) "delta(100)" true (Float.abs (Hints.Bkz_model.delta 100.0 -. 1.0093) < 0.0005)

let test_delta_rejects_tiny () =
  Alcotest.check_raises "beta < 2" (Invalid_argument "Bkz_model.delta: beta < 2") (fun () ->
      ignore (Hints.Bkz_model.delta 1.0))

let test_beta_monotone_in_volume () =
  (* more normalised volume = easier = smaller beta *)
  let b1 = Hints.Bkz_model.beta_for ~d:500 ~logvol:2000.0 in
  let b2 = Hints.Bkz_model.beta_for ~d:500 ~logvol:2400.0 in
  Alcotest.(check bool) "monotone" true (b2 < b1)

let test_beta_bounds () =
  Alcotest.(check (float 0.0)) "huge volume is free" 2.0 (Hints.Bkz_model.beta_for ~d:100 ~logvol:1e6);
  Alcotest.(check (float 0.0)) "no volume is hopeless" 100.0 (Hints.Bkz_model.beta_for ~d:100 ~logvol:(-1e6))

let test_security_bits_conversion () =
  (* the paper's convention: 382.25 bikz ~ 128 bits *)
  Alcotest.(check bool) "anchor" true (Float.abs (Hints.Bkz_model.security_bits 382.25 -. 128.3) < 0.1)

(* --- Lwe ---------------------------------------------------------------------- *)

let test_lwe_seal_parameters () =
  Alcotest.(check int) "q" 132120577 lwe.Hints.Lwe.q;
  Alcotest.(check int) "n" 1024 lwe.Hints.Lwe.n;
  Alcotest.(check int) "dim" 2049 (Hints.Lwe.embedding_dim lwe)

let test_lwe_no_hint_bikz_near_paper () =
  (* Paper (via [31]'s estimator): 382.25.  Our lite estimator uses the
     same GSA-intersect formulas but not the authors' exact code; we
     accept a 15% band and record the number in EXPERIMENTS.md. *)
  let b = Hints.Lwe.no_hint_bikz lwe in
  Alcotest.(check bool) "within band" true (b > 320.0 && b < 440.0)

let test_lwe_variances_layout () =
  let v = Hints.Lwe.variances lwe in
  Alcotest.(check int) "m + n entries" 2048 (Array.length v);
  Alcotest.(check (float 1e-9)) "error block first" (3.2 *. 3.2) v.(0);
  Alcotest.(check (float 1e-9)) "secret block" (2.0 /. 3.0) v.(2047)

(* --- Dbdd (lite) ----------------------------------------------------------------- *)

let test_dbdd_no_hints_matches_lwe () =
  let d = Hints.Dbdd.create lwe in
  Alcotest.(check (float 1e-6)) "same as closed form" (Hints.Lwe.no_hint_bikz lwe) (Hints.Dbdd.estimate_bikz d)

let test_dbdd_perfect_hint_reduces () =
  let d = Hints.Dbdd.create lwe in
  let before = Hints.Dbdd.estimate_bikz d in
  for i = 0 to 99 do
    Hints.Dbdd.perfect_hint d i
  done;
  let after = Hints.Dbdd.estimate_bikz d in
  Alcotest.(check bool) "easier" true (after < before);
  Alcotest.(check int) "dim dropped" 1949 (Hints.Dbdd.dim d);
  Alcotest.(check int) "integrated" 100 (Hints.Dbdd.integrated d)

let test_dbdd_all_error_hints_break () =
  let d = Hints.Dbdd.create lwe in
  for i = 0 to lwe.Hints.Lwe.m - 1 do
    Hints.Dbdd.perfect_hint d i
  done;
  (* complete break: bikz collapses to near-free *)
  Alcotest.(check bool) "complete break" true (Hints.Dbdd.estimate_bikz d < 40.0)

let test_dbdd_approximate_hint_shrinks_variance () =
  let d = Hints.Dbdd.create lwe in
  let v0 = Hints.Dbdd.coordinate_variance d 0 in
  Hints.Dbdd.approximate_hint d 0 ~measurement_variance:v0;
  Alcotest.(check (float 1e-9)) "harmonic shrink" (v0 /. 2.0) (Hints.Dbdd.coordinate_variance d 0)

let test_dbdd_posterior_hint () =
  let d = Hints.Dbdd.create lwe in
  Hints.Dbdd.posterior_hint d 0 ~posterior_variance:0.5;
  Alcotest.(check (float 1e-9)) "variance replaced" 0.5 (Hints.Dbdd.coordinate_variance d 0);
  (* a worse posterior must not hurt *)
  Hints.Dbdd.posterior_hint d 0 ~posterior_variance:100.0;
  Alcotest.(check (float 1e-9)) "not degraded" 0.5 (Hints.Dbdd.coordinate_variance d 0)

let test_dbdd_posterior_near_zero_is_perfect () =
  let d = Hints.Dbdd.create lwe in
  let dim0 = Hints.Dbdd.dim d in
  Hints.Dbdd.posterior_hint d 3 ~posterior_variance:1e-15;
  Alcotest.(check int) "promoted to perfect" (dim0 - 1) (Hints.Dbdd.dim d)

let test_dbdd_double_perfect_raises () =
  let d = Hints.Dbdd.create lwe in
  Hints.Dbdd.perfect_hint d 0;
  Alcotest.check_raises "again" (Invalid_argument "Dbdd: coordinate already integrated out") (fun () ->
      Hints.Dbdd.perfect_hint d 0)

let test_dbdd_hints_monotone_bikz () =
  (* every additional perfect hint weakly decreases the estimate *)
  let d = Hints.Dbdd.create lwe in
  let prev = ref (Hints.Dbdd.estimate_bikz d) in
  for i = 0 to 199 do
    Hints.Dbdd.perfect_hint d i;
    if i mod 50 = 49 then begin
      let b = Hints.Dbdd.estimate_bikz d in
      Alcotest.(check bool) "monotone" true (b <= !prev +. 1e-9);
      prev := b
    end
  done

(* --- Dbdd_full --------------------------------------------------------------------- *)

let toy = Hints.Lwe.seal_toy ~n:8

let test_full_matches_lite_on_coordinate_hints () =
  let lite = Hints.Dbdd.create toy in
  let full = Dbdd_full.create toy in
  Hints.Dbdd.perfect_hint lite 1;
  let v = Array.make 16 0.0 in
  v.(1) <- 1.0;
  Dbdd_full.perfect_hint full ~v ~value:2.0;
  Alcotest.(check (float 1e-6)) "same logvol" (Hints.Dbdd.logvol lite) (Dbdd_full.logvol full);
  Alcotest.(check int) "same dim" (Hints.Dbdd.dim lite) (Dbdd_full.dim full);
  (* approximate hint on another coordinate *)
  Hints.Dbdd.approximate_hint lite 3 ~measurement_variance:1.7;
  let v2 = Array.make 16 0.0 in
  v2.(3) <- 1.0;
  Dbdd_full.approximate_hint full ~v:v2 ~value:0.5 ~measurement_variance:1.7;
  Alcotest.(check (float 1e-6)) "still same logvol" (Hints.Dbdd.logvol lite) (Dbdd_full.logvol full)

let test_full_mean_update () =
  let full = Dbdd_full.create toy in
  let v = Array.make 16 0.0 in
  v.(0) <- 1.0;
  Dbdd_full.perfect_hint full ~v ~value:5.0;
  Alcotest.(check (float 1e-9)) "mean pinned" 5.0 (Dbdd_full.mean full).(0);
  Alcotest.(check (float 1e-9)) "variance killed" 0.0 (Mathkit.Matrix.get (Dbdd_full.covariance full) 0 0)

let test_full_general_direction_hint () =
  let full = Dbdd_full.create toy in
  let before = Dbdd_full.estimate_bikz full in
  (* hint on e_0 + e_1 *)
  let v = Array.make 16 0.0 in
  v.(0) <- 1.0;
  v.(1) <- 1.0;
  Dbdd_full.perfect_hint full ~v ~value:0.0;
  Alcotest.(check bool) "easier" true (Dbdd_full.estimate_bikz full <= before);
  (* covariance now correlates e_0 and e_1 *)
  Alcotest.(check bool) "correlation introduced" true
    (Mathkit.Matrix.get (Dbdd_full.covariance full) 0 1 < 0.0)

let test_full_redundant_hint_raises () =
  let full = Dbdd_full.create toy in
  let v = Array.make 16 0.0 in
  v.(2) <- 1.0;
  Dbdd_full.perfect_hint full ~v ~value:1.0;
  Alcotest.check_raises "redundant"
    (Invalid_argument "Dbdd_full.perfect_hint: hint direction outside ellipsoid support") (fun () ->
      Dbdd_full.perfect_hint full ~v ~value:1.0)

(* --- Hint ------------------------------------------------------------------------- *)

let test_hint_of_posterior_perfect () =
  let h = Hints.Hint.of_posterior ~coordinate:5 [| (2, 1.0); (3, 0.0) |] in
  (match h.Hints.Hint.kind with
  | Hints.Hint.Perfect v -> Alcotest.(check int) "value" 2 v
  | _ -> Alcotest.fail "expected perfect");
  Alcotest.(check int) "coordinate" 5 h.Hints.Hint.coordinate

let test_hint_of_posterior_approximate () =
  let h = Hints.Hint.of_posterior ~coordinate:0 [| (1, 0.5); (3, 0.5) |] in
  match h.Hints.Hint.kind with
  | Hints.Hint.Approximate { mean; variance; confidence } ->
      Alcotest.(check (float 1e-9)) "mean" 2.0 mean;
      Alcotest.(check (float 1e-9)) "variance" 1.0 variance;
      Alcotest.(check (float 1e-9)) "confidence" 0.5 confidence
  | _ -> Alcotest.fail "expected approximate"

let test_hint_sign_hints () =
  let z = Hints.Hint.sign_hint ~sigma:3.2 ~coordinate:0 0 in
  (match z.Hints.Hint.kind with Hints.Hint.Perfect 0 -> () | _ -> Alcotest.fail "zero should be perfect");
  let p = Hints.Hint.sign_hint ~sigma:3.2 ~coordinate:0 1 in
  match p.Hints.Hint.kind with
  | Hints.Hint.Approximate { mean; variance; _ } ->
      Alcotest.(check bool) "positive mean" true (mean > 0.0);
      Alcotest.(check bool) "half-normal variance < prior" true (variance < 3.2 *. 3.2)
  | _ -> Alcotest.fail "expected approximate"

let test_hint_apply_all_reduces_bikz () =
  let d = Hints.Dbdd.create lwe in
  let before = Hints.Dbdd.estimate_bikz d in
  let hint_list =
    List.init 512 (fun i ->
        if i mod 4 = 0 then Hints.Hint.of_posterior ~coordinate:i [| (0, 1.0) |]
        else Hints.Hint.sign_hint ~sigma:3.2 ~coordinate:i 1)
  in
  Hints.Hint.apply_all d hint_list;
  Alcotest.(check bool) "reduced" true (Hints.Dbdd.estimate_bikz d < before);
  Alcotest.(check int) "perfect count" 128 (Hints.Dbdd.integrated d)

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("delta decreasing", test_delta_decreasing);
      ("delta known values", test_delta_known_values);
      ("delta rejects beta < 2", test_delta_rejects_tiny);
      ("beta monotone in volume", test_beta_monotone_in_volume);
      ("beta bounds", test_beta_bounds);
      ("security bits conversion", test_security_bits_conversion);
      ("lwe seal parameters", test_lwe_seal_parameters);
      ("lwe no-hint bikz near paper", test_lwe_no_hint_bikz_near_paper);
      ("lwe variances layout", test_lwe_variances_layout);
      ("dbdd no hints = closed form", test_dbdd_no_hints_matches_lwe);
      ("dbdd perfect hints reduce", test_dbdd_perfect_hint_reduces);
      ("dbdd all error hints break", test_dbdd_all_error_hints_break);
      ("dbdd approximate hint", test_dbdd_approximate_hint_shrinks_variance);
      ("dbdd posterior hint", test_dbdd_posterior_hint);
      ("dbdd tiny posterior is perfect", test_dbdd_posterior_near_zero_is_perfect);
      ("dbdd double perfect raises", test_dbdd_double_perfect_raises);
      ("dbdd hints monotone", test_dbdd_hints_monotone_bikz);
      ("full = lite on coordinate hints", test_full_matches_lite_on_coordinate_hints);
      ("full mean update", test_full_mean_update);
      ("full general direction hint", test_full_general_direction_hint);
      ("full redundant hint raises", test_full_redundant_hint_raises);
      ("hint of posterior (perfect)", test_hint_of_posterior_perfect);
      ("hint of posterior (approximate)", test_hint_of_posterior_approximate);
      ("hint sign hints", test_hint_sign_hints);
      ("hint apply_all", test_hint_apply_all_reduces_bikz);
    ]

(* --- guess ladder --------------------------------------------------------- *)

let test_guess_ladder_monotone () =
  let d = Hints.Dbdd.create lwe in
  let hint_list =
    List.init 64 (fun i ->
        Hints.Hint.of_posterior ~coordinate:i
          [| (1, 0.5 +. (0.004 *. float_of_int i)); (2, 0.5 -. (0.004 *. float_of_int i)) |])
  in
  Hints.Hint.apply_all d hint_list;
  let ladder = Hints.Hint.guess_ladder d hint_list ~max_guesses:8 in
  Alcotest.(check int) "eight steps" 8 (List.length ladder);
  let prev_p = ref 1.0 and prev_b = ref infinity in
  List.iteri
    (fun i step ->
      Alcotest.(check int) "cumulative count" (i + 1) step.Hints.Hint.guesses;
      Alcotest.(check bool) "probability decreases" true (step.Hints.Hint.success_probability <= !prev_p);
      Alcotest.(check bool) "bikz decreases" true (step.Hints.Hint.bikz <= !prev_b +. 1e-9);
      prev_p := step.Hints.Hint.success_probability;
      prev_b := step.Hints.Hint.bikz)
    ladder;
  (* the most confident coordinate is guessed first *)
  (match ladder with
  | first :: _ -> Alcotest.(check bool) "best confidence first" true (first.Hints.Hint.success_probability > 0.74)
  | [] -> Alcotest.fail "empty ladder")

let test_guess_ladder_exhausts () =
  let d = Hints.Dbdd.create lwe in
  let hint_list = [ Hints.Hint.of_posterior ~coordinate:0 [| (1, 0.6); (2, 0.4) |] ] in
  Hints.Hint.apply_all d hint_list;
  let ladder = Hints.Hint.guess_ladder d hint_list ~max_guesses:5 in
  Alcotest.(check int) "stops at available candidates" 1 (List.length ladder)

let ladder_cases =
  [
    ("guess ladder monotone", test_guess_ladder_monotone);
    ("guess ladder exhausts candidates", test_guess_ladder_exhausts);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) ladder_cases
