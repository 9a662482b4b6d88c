type security_report = {
  bikz_no_hints : float;
  bikz_with_hints : float;
  bits_no_hints : float;
  bits_with_hints : float;
  perfect_hints : int;
  approximate_hints : int;
}

let lwe_instance = Constants.lwe_instance

(* When the campaign attacked fewer coefficients than the instance has
   (scaled-down configs), the per-coefficient statistics are recycled -
   the per-coordinate hint quality is i.i.d., so this is an unbiased
   extrapolation of the security estimate. *)
let hints_of_results results count mk =
  if Array.length results = 0 then failwith "Experiment: no attacked coefficients";
  let len = Array.length results in
  List.init count (fun i -> mk i results.(i mod len))

let security_of_hints ?(obs = Obs.Ctx.disabled) hint_list =
  let report =
    Obs.Ctx.span obs "sink.integrate" (fun () ->
        let dbdd = Hints.Dbdd.create lwe_instance in
        let bikz_no_hints = Hints.Dbdd.estimate_bikz dbdd in
        Hints.Hint.apply_all dbdd hint_list;
        let bikz_with_hints = Hints.Dbdd.estimate_bikz dbdd in
        let perfect = Hints.Dbdd.integrated dbdd in
        {
          bikz_no_hints;
          bikz_with_hints;
          bits_no_hints = Hints.Bkz_model.security_bits bikz_no_hints;
          bits_with_hints = Hints.Bkz_model.security_bits bikz_with_hints;
          perfect_hints = perfect;
          approximate_hints = List.length hint_list - perfect;
        })
  in
  if Obs.Ctx.enabled obs then begin
    let m = Obs.Ctx.metrics obs in
    let perfect, approximate, none_useful = Hints.Hint.kind_counts hint_list in
    Obs.Metrics.incr ~by:perfect (Obs.Metrics.counter m "sink.hints_perfect");
    Obs.Metrics.incr ~by:approximate (Obs.Metrics.counter m "sink.hints_approximate");
    Obs.Metrics.incr ~by:none_useful (Obs.Metrics.counter m "sink.hints_none_useful");
    Obs.Metrics.set (Obs.Metrics.gauge m "sink.bikz_no_hints") report.bikz_no_hints;
    Obs.Metrics.set (Obs.Metrics.gauge m "sink.bikz_with_hints") report.bikz_with_hints;
    Obs.Metrics.set (Obs.Metrics.gauge m "sink.bits_with_hints") report.bits_with_hints
  end;
  report

let json_of_security s =
  Obs.Json.Obj
    [
      ("bikz_no_hints", Obs.Json.Float s.bikz_no_hints);
      ("bikz_with_hints", Obs.Json.Float s.bikz_with_hints);
      ("bits_no_hints", Obs.Json.Float s.bits_no_hints);
      ("bits_with_hints", Obs.Json.Float s.bits_with_hints);
      ("perfect_hints", Obs.Json.Int s.perfect_hints);
      ("approximate_hints", Obs.Json.Int s.approximate_hints);
    ]
