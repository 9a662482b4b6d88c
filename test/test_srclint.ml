(* srclint: the determinism / domain-safety lint of the pipeline's own
   OCaml source (DESIGN.md §15).  Unit tests drive each rule class on
   inline sources through Srclint.Driver.report_of_strings (positive,
   negative and suppressed shapes), a QCheck property pins the
   suppression-comment round-trip, and the golden tests byte-compare
   the real binary's output on the planted fixtures under
   fixtures/srclint/. *)

let report src =
  match Srclint.Driver.report_of_strings [ ("t.ml", src) ] with
  | Ok r -> r
  | Error msg -> Alcotest.failf "unexpected srclint error: %s" msg

let rule_names r = List.map (fun f -> Srclint.Finding.rule_name f.Srclint.Finding.kind) r.Srclint.Driver.findings
let src lines = String.concat "\n" lines ^ "\n"

(* Directive comments are assembled with Suppress.allow_comment (or
   around the runtime marker) so this file never contains the literal
   marker text itself. *)
let allow rule reason = Srclint.Suppress.allow_comment ~rule ~reason
let directive body = Printf.sprintf "(* %s %s *)" ("srclint" ^ ":") body

(* --- rule 1: nondeterminism sources ---------------------------------------- *)

let test_nondet () =
  Alcotest.(check (list string))
    "global Random draws flagged" [ "nondet-source"; "nondet-source" ]
    (rule_names (report (src [ "let _ = Random.self_init ()"; "let _roll = Random.int 6" ])));
  Alcotest.(check (list string))
    "wall clock and cpu time flagged" [ "nondet-source"; "nondet-source"; "nondet-source" ]
    (rule_names (report (src [ "let _ = Unix.gettimeofday ()"; "let _ = Sys.time ()"; "let _ = Domain.self ()" ])));
  Alcotest.(check (list string))
    "explicit-state randomness is clean" []
    (rule_names (report (src [ "let _ok st = Random.State.int st 6" ])))

(* --- rule 2: Hashtbl iteration order --------------------------------------- *)

let test_hashtbl_order () =
  Alcotest.(check (list string))
    "iter always flagged" [ "hashtbl-order" ]
    (rule_names (report (src [ "let _f tbl = Hashtbl.iter (fun _ _ -> ()) tbl" ])));
  Alcotest.(check (list string))
    "bare fold flagged" [ "hashtbl-order" ]
    (rule_names (report (src [ "let _f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []" ])));
  Alcotest.(check (list string))
    "fold piped into a sort is clean" []
    (rule_names (report (src [ "let _f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare" ])));
  Alcotest.(check (list string))
    "fold directly under a sort is clean" []
    (rule_names (report (src [ "let _f tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])" ])));
  Alcotest.(check (list string))
    "fold under sort via @@ is clean" []
    (rule_names (report (src [ "let _f tbl = List.sort compare @@ Hashtbl.fold (fun k _ acc -> k :: acc) tbl []" ])))

(* --- rule 3: Domain.spawn captures ----------------------------------------- *)

let test_domain_capture () =
  Alcotest.(check (list string))
    "unsynchronized ref mutation flagged" [ "domain-capture" ]
    (rule_names (report (src [ "let c = ref 0"; "let _go () = Domain.spawn (fun () -> incr c)" ])));
  Alcotest.(check (list string))
    "mutex in the closure is clean" []
    (rule_names
       (report
          (src
             [
               "let c = ref 0";
               "let m = Mutex.create ()";
               "let _go () = Domain.spawn (fun () -> Mutex.lock m; incr c; Mutex.unlock m)";
             ])));
  Alcotest.(check (list string))
    "pure closure is clean" []
    (rule_names (report (src [ "let _go () = Domain.spawn (fun () -> 1 + 1)" ])))

(* --- rule 4: exception message strings -------------------------------------- *)

let test_exn_message () =
  Alcotest.(check (list string))
    "literal-message handler flagged" [ "exn-message" ]
    (rule_names (report (src [ {|let _h f = try f () with Failure "boom" -> ()|} ])));
  Alcotest.(check (list string))
    "rendered-message comparison flagged" [ "exn-message" ]
    (rule_names (report (src [ {|let _h f = try f () with e -> Printexc.to_string e = "X"|} ])));
  Alcotest.(check (list string))
    "family match is clean" []
    (rule_names (report (src [ "let _h f = try f () with Failure _ -> ()" ])))

(* --- rule 5: bounds-unchecked indexing --------------------------------------- *)

let test_unsafe_index () =
  Alcotest.(check (list string))
    "Array.unsafe_get flagged" [ "unsafe-index" ]
    (rule_names (report (src [ "let _f xs i = Array.unsafe_get xs i" ])));
  Alcotest.(check (list string))
    "Bigarray unsafe_set flagged" [ "unsafe-index" ]
    (rule_names (report (src [ "let _f b i v = Bigarray.Array1.unsafe_set b i v" ])));
  Alcotest.(check (list string))
    "checked access is clean" []
    (rule_names (report (src [ "let _f xs i = Array.get xs i"; "let _g (s : string) = String.get s 0" ])));
  (* the sanctioned-kernel shape: an allow with a reason on the site *)
  let r =
    report
      (src
         [
           allow Srclint.Rule.Unsafe_index "loop bounds validated up front";
           "let _f xs i = Array.unsafe_get xs i";
         ])
  in
  Alcotest.(check (list string)) "allowed kernel site is suppressed" [] (rule_names r);
  Alcotest.(check int) "and counted" 1 r.Srclint.Driver.suppressed

let test_module_lazy () =
  Alcotest.(check (list string))
    "module-level lazy flagged" [ "domain-capture"; "domain-capture"; "domain-capture" ]
    (rule_names
       (report
          (src
             [
               "let t = lazy (Array.make 256 0)";
               "let (u : int array Lazy.t) = lazy [||]";
               "let v = Lazy.from_fun (fun () -> 1)";
             ])));
  Alcotest.(check (list string))
    "inside a submodule too" [ "domain-capture" ]
    (rule_names (report (src [ "module M = struct let t = lazy 0 end" ])));
  Alcotest.(check (list string))
    "a lazy built per call or already forced is clean" []
    (rule_names (report (src [ "let _f () = lazy 0"; "let _v = Lazy.from_val 0"; "let _g = Lazy.force" ])));
  let exe = Srclint.Driver.report_of_strings ~library:(fun _ -> false) [ ("t.ml", src [ "let t = lazy 0" ]) ] in
  Alcotest.(check (list string))
    "executable code is exempt" []
    (match exe with Ok r -> rule_names r | Error msg -> Alcotest.failf "unexpected srclint error: %s" msg)

(* --- suppression directives -------------------------------------------------- *)

let test_suppression () =
  let r =
    report (src [ allow Srclint.Rule.Nondet_source "tests want ambient time here"; "let _ = Unix.gettimeofday ()" ])
  in
  Alcotest.(check (list string)) "allowed finding is suppressed" [] (rule_names r);
  Alcotest.(check int) "and counted" 1 r.Srclint.Driver.suppressed;
  let r = report (src [ allow Srclint.Rule.Hashtbl_order "nothing to suppress"; "let _pure = 1 + 1" ]) in
  Alcotest.(check (list string)) "stale allow surfaces" [ "unused-allow" ] (rule_names r);
  let r = report (src [ directive "allow no-such-rule because"; "let _ = 0" ]) in
  Alcotest.(check (list string)) "unknown rule is a bad directive" [ "bad-directive" ] (rule_names r);
  let r = report (src [ directive "allow nondet-source"; "let _ = 0" ]) in
  Alcotest.(check (list string)) "reasonless allow is a bad directive" [ "bad-directive" ] (rule_names r);
  (* an allow does not swallow findings of a different rule *)
  let r =
    report (src [ allow Srclint.Rule.Hashtbl_order "wrong rule for this site"; "let _ = Unix.gettimeofday ()" ])
  in
  Alcotest.(check (list string))
    "allow is rule-scoped" [ "nondet-source"; "unused-allow" ]
    (List.sort compare (rule_names r))

(* --- drift (--check) ---------------------------------------------------------- *)

let test_drift () =
  let matched = report (src [ directive "expect nondet-source"; "let _ = Unix.gettimeofday ()" ]) in
  Alcotest.(check (list string)) "matching expect has no drift" [] (Srclint.Driver.drift matched);
  let missing = report (src [ directive "expect nondet-source"; "let _pure = 1 + 1" ]) in
  Alcotest.(check bool) "unmet expect drifts" true (Srclint.Driver.drift missing <> []);
  let unexpected = report (src [ "let _ = Unix.gettimeofday ()" ]) in
  Alcotest.(check bool) "unexpected finding drifts" true (Srclint.Driver.drift unexpected <> [])

let test_parse_error () =
  match Srclint.Driver.report_of_strings [ ("t.ml", "let = =") ] with
  | Ok _ -> Alcotest.fail "a source that does not parse must be an Error"
  | Error msg -> Alcotest.(check bool) "error names the file" true (String.length msg > 0)

(* --- golden: the real binary on the planted fixtures ------------------------- *)

let exe = Filename.concat (Filename.concat ".." "bin") "reveal_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_capture args =
  let tmp = Filename.temp_file "srclint_test" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote exe) args (Filename.quote tmp)) in
      (code, read_file tmp))

let test_golden_text () =
  let code, out = run_capture "srclint fixtures/srclint --check" in
  Alcotest.(check int) "fixtures match their expect table" 0 code;
  Alcotest.(check string) "text report is bit-identical to the golden" (read_file "golden/srclint.txt") out

let test_golden_json () =
  let code, out = run_capture "srclint fixtures/srclint --check --json" in
  Alcotest.(check int) "fixtures match their expect table" 0 code;
  Alcotest.(check string) "json report is bit-identical to the golden" (read_file "golden/srclint.json") out

let test_exit_codes () =
  let code, _ = run_capture "srclint fixtures/srclint" in
  Alcotest.(check int) "planted findings exit 1 without --check" 1 code;
  let code, _ = run_capture "srclint /nonexistent/path.ml" in
  Alcotest.(check int) "unreadable path exits 2" 2 code

(* --- qcheck: the suppression comment round-trips ----------------------------- *)

let qcheck_cases =
  let open QCheck in
  let word = Gen.map (fun l -> String.concat "" (List.map (String.make 1) l)) (Gen.list_size (Gen.int_range 1 8) (Gen.char_range 'a' 'z')) in
  let reason = Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 1 5) word) in
  let arb = make ~print:(fun (r, s) -> Printf.sprintf "(%s, %S)" (Srclint.Rule.name r) s) Gen.(pair (oneofl Srclint.Rule.all) reason) in
  [
    Test.make ~name:"suppress: allow_comment round-trips through parse_line" ~count:500 arb (fun (rule, reason) ->
        match Srclint.Suppress.parse_line (Srclint.Suppress.allow_comment ~rule ~reason) with
        | Srclint.Suppress.Allow (r, re) -> r = rule && re = reason
        | _ -> false);
    Test.make ~name:"suppress: rule names round-trip through of_name" ~count:100
      (make Gen.(oneofl Srclint.Rule.all))
      (fun rule -> Srclint.Rule.of_name (Srclint.Rule.name rule) = Some rule);
  ]

let unit_cases =
  [
    ("srclint: nondet sources", test_nondet);
    ("srclint: hashtbl order", test_hashtbl_order);
    ("srclint: domain capture", test_domain_capture);
    ("srclint: module-level lazy", test_module_lazy);
    ("srclint: exn message", test_exn_message);
    ("srclint: unsafe index", test_unsafe_index);
    ("srclint: suppression directives", test_suppression);
    ("srclint: expect drift", test_drift);
    ("srclint: parse error is an Error", test_parse_error);
  ]

let golden_cases =
  [
    ("srclint: golden text on fixtures", test_golden_text);
    ("srclint: golden json on fixtures", test_golden_json);
    ("srclint: exit codes", test_exit_codes);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_cases
  @ (if Sys.file_exists exe then List.map (fun (name, f) -> Alcotest.test_case name `Quick f) golden_cases else [])
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
