(* Regenerate the golden report fixtures under test/golden/.

   The golden tests (test/test_report.ml, test/test_obs.ml) assert
   that every artefact in [Experiment.golden_artefacts], rendered at
   [Experiment.golden_config], and the logical-clock obs summary are
   bit-identical across refactors of the report/experiment/obs layers.
   Run this ONLY when an intentional change to the numbers or the
   wording lands, and review the diff:

     dune exec tools/golden_gen.exe -- test/golden *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let config = Reveal.Experiment.golden_config in
  (* one profiled campaign shared by every artefact that needs one *)
  let env = lazy (Reveal.Experiment.prepare config) in
  let save file text =
    let path = Filename.concat dir file in
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  in
  List.iter
    (fun (name, file) ->
      let build = List.assoc name Reveal.Experiment.artefacts in
      save file (build config env).Reveal.Report.text)
    Reveal.Experiment.golden_artefacts;
  save "obs_summary.txt" (Reveal.Experiment.obs_summary_demo Reveal.Experiment.obs_golden_config)
