(* Report layer: the hand-rolled JSON emitter, the column combinators,
   and the golden-output regression — the refactored pipeline must
   reproduce the pre-refactor Table I / Table IV text bit for bit. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

let json = Alcotest.testable (fun ppf j -> Fmt.string ppf (Reveal.Report.to_string j)) ( = )

(* --- JSON emitter ------------------------------------------------------------ *)

let test_json_scalars () =
  let check msg expected j = Alcotest.(check string) msg expected (Reveal.Report.to_string j) in
  check "null" "null" Reveal.Report.Null;
  check "true" "true" (Reveal.Report.Bool true);
  check "false" "false" (Reveal.Report.Bool false);
  check "int" "-42" (Reveal.Report.Int (-42));
  check "negative zero int" "0" (Reveal.Report.Int 0);
  check "integral float keeps a decimal point" "1.0" (Reveal.Report.Float 1.0);
  check "fractional float" "0.25" (Reveal.Report.Float 0.25);
  check "large float stays compact" "1e+30" (Reveal.Report.Float 1e30);
  check "nan is null" "null" (Reveal.Report.Float Float.nan);
  check "infinity is null" "null" (Reveal.Report.Float Float.infinity);
  check "negative infinity is null" "null" (Reveal.Report.Float Float.neg_infinity)

let test_json_strings () =
  let check msg expected j = Alcotest.(check string) msg expected (Reveal.Report.to_string j) in
  check "plain" "\"abc\"" (Reveal.Report.String "abc");
  check "quote and backslash" "\"a\\\"b\\\\c\"" (Reveal.Report.String "a\"b\\c");
  check "newline tab cr" "\"a\\nb\\tc\\rd\"" (Reveal.Report.String "a\nb\tc\rd");
  check "control characters are u-escaped" "\"\\u0001\\u001f\"" (Reveal.Report.String "\x01\x1f")

let test_json_containers () =
  let check msg expected j = Alcotest.(check string) msg expected (Reveal.Report.to_string j) in
  check "empty list" "[]" (Reveal.Report.List []);
  check "empty obj" "{}" (Reveal.Report.Obj []);
  check "nested"
    "{\"rows\":[{\"a\":1,\"b\":2.5},{\"a\":2,\"b\":null}],\"ok\":true}"
    (Reveal.Report.Obj
       [
         ( "rows",
           Reveal.Report.List
             [
               Reveal.Report.Obj [ ("a", Reveal.Report.Int 1); ("b", Reveal.Report.Float 2.5) ];
               Reveal.Report.Obj [ ("a", Reveal.Report.Int 2); ("b", Reveal.Report.Float Float.nan) ];
             ] );
         ("ok", Reveal.Report.Bool true);
       ])

(* --- column combinators -------------------------------------------------------- *)

let columns =
  [
    Reveal.Report.scol ~heading:"  name" ~key:"name" ~fmt:"  %-4s" fst;
    Reveal.Report.fcol ~heading:"  score" ~key:"score" ~fmt:"  %5.1f" snd;
  ]

let test_table_combinator () =
  let doc = Reveal.Report.table ~title:"T\n" ~footer:"F\n" columns [ ("a", 1.0); ("bc", 2.25) ] in
  Alcotest.(check string) "text assembles title/headings/rows/footer"
    "T\n  name  score\n  a       1.0\n  bc      2.2\nF\n" doc.Reveal.Report.text;
  Alcotest.(check json) "json is the row array"
    (Reveal.Report.List
       [
         Reveal.Report.Obj [ ("name", Reveal.Report.String "a"); ("score", Reveal.Report.Float 1.0) ];
         Reveal.Report.Obj [ ("name", Reveal.Report.String "bc"); ("score", Reveal.Report.Float 2.25) ];
       ])
    doc.Reveal.Report.json;
  let doc = Reveal.Report.table ~title:"T\n" ~header:"custom\n" columns [] in
  Alcotest.(check string) "header override replaces concatenated headings" "T\ncustom\n" doc.Reveal.Report.text;
  Alcotest.(check json) "empty table is an empty array" (Reveal.Report.List []) doc.Reveal.Report.json

let test_row_json () =
  Alcotest.(check json) "row_json builds the object in column order"
    (Reveal.Report.Obj [ ("name", Reveal.Report.String "x"); ("score", Reveal.Report.Float 0.5) ])
    (Reveal.Report.row_json columns ("x", 0.5))

(* --- golden regression ----------------------------------------------------------- *)

(* The exact configuration the goldens were recorded with before the
   pipeline refactor; any byte of drift in Table I or Table IV text is
   a regression of the attack itself, not of formatting. *)
let golden_config =
  { Reveal.Experiment.seed = 0xD47EL; device_n = 64; per_value = 80; attack_traces = 2 }

let golden_env = lazy (Reveal.Experiment.prepare golden_config)

let test_golden_table1 () =
  Alcotest.(check string) "table1 text is bit-identical to the pre-refactor golden"
    (read_file "golden/table1.txt")
    (Reveal.Experiment.render_table1 (Lazy.force golden_env))

let test_golden_table2 () =
  Alcotest.(check string) "table2 text is bit-identical to the golden"
    (read_file "golden/table2.txt")
    (Reveal.Experiment.render_table2 (Reveal.Experiment.table2 (Lazy.force golden_env)))

let test_golden_table3 () =
  Alcotest.(check string) "table3 text is bit-identical to the golden"
    (read_file "golden/table3.txt")
    (Reveal.Experiment.render_table3 (Reveal.Experiment.table3 (Lazy.force golden_env)))

let test_golden_table4 () =
  Alcotest.(check string) "table4 text is bit-identical to the pre-refactor golden"
    (read_file "golden/table4.txt")
    (Reveal.Experiment.render_table4 (Reveal.Experiment.table4 (Lazy.force golden_env)))

let test_golden_signs () =
  Alcotest.(check string) "signs text is bit-identical to the golden"
    (read_file "golden/signs.txt")
    (Reveal.Experiment.render_signs (Reveal.Experiment.signs (Lazy.force golden_env)))

let test_golden_fig3 () =
  Alcotest.(check string) "fig3 text is bit-identical to the golden"
    (read_file "golden/fig3.txt")
    (Reveal.Experiment.render_fig3 (Reveal.Experiment.fig3 golden_config))

(* Artefacts rendered straight from the registry: the two that score
   windows outside the campaign grader (averaged windows, flat templates
   over each feature extractor), and the fault sweep, the one golden
   that runs the fault model. *)
let test_golden_artefact name () =
  match Reveal.Experiment.artefact name golden_config with
  | None -> Alcotest.failf "artefact %s is not registered" name
  | Some doc ->
      let file = String.map (function '-' -> '_' | c -> c) name in
      Alcotest.(check string) (name ^ " text is bit-identical to the golden")
        (read_file (Printf.sprintf "golden/%s.txt" file))
        doc.Reveal.Report.text

let test_doc_text_matches_render () =
  (* the two renderers of one doc can never drift: doc.text is the
     render_* output and every artefact builder returns both *)
  let env = Lazy.force golden_env in
  Alcotest.(check string) "table1 doc.text = render_table1"
    (Reveal.Experiment.render_table1 env)
    (Reveal.Experiment.table1_doc env).Reveal.Report.text;
  let t4 = Reveal.Experiment.table4 env in
  Alcotest.(check string) "table4 doc.text = render_table4"
    (Reveal.Experiment.render_table4 t4)
    (Reveal.Experiment.table4_doc t4).Reveal.Report.text

let test_artefact_registry () =
  Alcotest.(check bool) "all 18 artefacts registered" true
    (List.length Reveal.Experiment.artefact_names = 18);
  Alcotest.(check bool) "unknown artefact is None" true
    (Reveal.Experiment.artefact "no-such-artefact" golden_config = None);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves") true
        (List.mem_assoc name Reveal.Experiment.artefacts))
    [ "fig3"; "table1"; "table2"; "table3"; "table4"; "fault-sweep"; "zero-consistency" ]

let suite =
  [
    ("json: scalars", `Quick, test_json_scalars);
    ("json: string escaping", `Quick, test_json_strings);
    ("json: containers", `Quick, test_json_containers);
    ("table combinator", `Quick, test_table_combinator);
    ("row_json", `Quick, test_row_json);
    ("golden: table1", `Quick, test_golden_table1);
    ("golden: table2", `Quick, test_golden_table2);
    ("golden: table3", `Quick, test_golden_table3);
    ("golden: table4", `Quick, test_golden_table4);
    ("golden: signs", `Quick, test_golden_signs);
    ("golden: fig3", `Quick, test_golden_fig3);
    ("golden: averaging", `Quick, test_golden_artefact "averaging");
    ("golden: ablate-features", `Quick, test_golden_artefact "ablate-features");
    ("golden: fault-sweep", `Quick, test_golden_artefact "fault-sweep");
    ("doc text matches render_*", `Quick, test_doc_text_matches_render);
    ("artefact registry", `Quick, test_artefact_registry);
  ]
