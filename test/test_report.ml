(* Report layer: the hand-rolled JSON emitter, the column combinators,
   and the golden-output regression — the refactored pipeline must
   reproduce the pre-refactor Table I / Table IV text bit for bit. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  data

let json = Alcotest.testable (fun ppf j -> Fmt.string ppf (Obs.Json.to_string j)) ( = )

(* --- JSON emitter ------------------------------------------------------------ *)

let test_json_scalars () =
  let check msg expected j = Alcotest.(check string) msg expected (Obs.Json.to_string j) in
  check "null" "null" Obs.Json.Null;
  check "true" "true" (Obs.Json.Bool true);
  check "false" "false" (Obs.Json.Bool false);
  check "int" "-42" (Obs.Json.Int (-42));
  check "negative zero int" "0" (Obs.Json.Int 0);
  check "integral float keeps a decimal point" "1.0" (Obs.Json.Float 1.0);
  check "fractional float" "0.25" (Obs.Json.Float 0.25);
  check "large float stays compact" "1e+30" (Obs.Json.Float 1e30);
  check "nan is null" "null" (Obs.Json.Float Float.nan);
  check "infinity is null" "null" (Obs.Json.Float Float.infinity);
  check "negative infinity is null" "null" (Obs.Json.Float Float.neg_infinity)

let test_json_strings () =
  let check msg expected j = Alcotest.(check string) msg expected (Obs.Json.to_string j) in
  check "plain" "\"abc\"" (Obs.Json.String "abc");
  check "quote and backslash" "\"a\\\"b\\\\c\"" (Obs.Json.String "a\"b\\c");
  check "newline tab cr" "\"a\\nb\\tc\\rd\"" (Obs.Json.String "a\nb\tc\rd");
  check "control characters are u-escaped" "\"\\u0001\\u001f\"" (Obs.Json.String "\x01\x1f")

let test_json_containers () =
  let check msg expected j = Alcotest.(check string) msg expected (Obs.Json.to_string j) in
  check "empty list" "[]" (Obs.Json.List []);
  check "empty obj" "{}" (Obs.Json.Obj []);
  check "nested"
    "{\"rows\":[{\"a\":1,\"b\":2.5},{\"a\":2,\"b\":null}],\"ok\":true}"
    (Obs.Json.Obj
       [
         ( "rows",
           Obs.Json.List
             [
               Obs.Json.Obj [ ("a", Obs.Json.Int 1); ("b", Obs.Json.Float 2.5) ];
               Obs.Json.Obj [ ("a", Obs.Json.Int 2); ("b", Obs.Json.Float Float.nan) ];
             ] );
         ("ok", Obs.Json.Bool true);
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
    (Obs.Json.List
       [
         Obs.Json.Obj [ ("name", Obs.Json.String "a"); ("score", Obs.Json.Float 1.0) ];
         Obs.Json.Obj [ ("name", Obs.Json.String "bc"); ("score", Obs.Json.Float 2.25) ];
       ])
    doc.Reveal.Report.json;
  let doc = Reveal.Report.table ~title:"T\n" ~header:"custom\n" columns [] in
  Alcotest.(check string) "header override replaces concatenated headings" "T\ncustom\n" doc.Reveal.Report.text;
  Alcotest.(check json) "empty table is an empty array" (Obs.Json.List []) doc.Reveal.Report.json

let test_row_json () =
  Alcotest.(check json) "row_json builds the object in column order"
    (Obs.Json.Obj [ ("name", Obs.Json.String "x"); ("score", Obs.Json.Float 0.5) ])
    (Reveal.Report.row_json columns ("x", 0.5))

(* --- golden regression ----------------------------------------------------------- *)

(* One shared env: every campaign artefact profiles once. *)
let golden_env = lazy (Reveal.Experiment.prepare Reveal.Experiment.golden_config)

(* Every golden artefact rendered straight from the registry, the same
   list and builders tools/golden_gen.ml writes the files with; any
   byte of drift is a regression of the attack itself, not of
   formatting. *)
let test_golden name file () =
  let build = List.assoc name Reveal.Experiment.artefacts in
  Alcotest.(check string) (name ^ " text is bit-identical to the golden")
    (read_file ("golden/" ^ file))
    (build Reveal.Experiment.golden_config golden_env).Reveal.Report.text

let test_artefact_registry () =
  Alcotest.(check bool) "all 18 artefacts registered" true
    (List.length Reveal.Experiment.artefact_names = 18);
  Alcotest.(check bool) "unknown artefact is None" true
    (Reveal.Experiment.artefact "no-such-artefact" Reveal.Experiment.golden_config = None);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves") true
        (List.mem_assoc name Reveal.Experiment.artefacts))
    ([ "zero-consistency" ] @ List.map fst Reveal.Experiment.golden_artefacts);
  Alcotest.(check int) "nine golden artefacts" 9 (List.length Reveal.Experiment.golden_artefacts)

let suite =
  [
    ("json: scalars", `Quick, test_json_scalars);
    ("json: string escaping", `Quick, test_json_strings);
    ("json: containers", `Quick, test_json_containers);
    ("table combinator", `Quick, test_table_combinator);
    ("row_json", `Quick, test_row_json);
    ("artefact registry", `Quick, test_artefact_registry);
  ]
  @ List.map
      (fun (name, file) -> ("golden: " ^ name, `Quick, test_golden name file))
      Reveal.Experiment.golden_artefacts
