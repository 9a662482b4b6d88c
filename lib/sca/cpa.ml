let correlation_trace traces hypothesis =
  let n = Array.length traces in
  if n < 2 then invalid_arg "Cpa: need at least 2 traces";
  if Array.length hypothesis <> n then invalid_arg "Cpa: hypothesis length mismatch";
  let d = Array.length traces.(0) in
  Array.iter (fun r -> if Array.length r <> d then invalid_arg "Cpa: ragged traces") traces;
  Array.init d (fun t ->
      let column = Array.init n (fun i -> traces.(i).(t)) in
      Mathkit.Stats.correlation column hypothesis)

let hw_hypothesis values =
  Array.map (fun v -> float_of_int (Power.Leakage.hamming_weight v)) values

let correlation_poi ?(count = 16) traces labels =
  let rho = correlation_trace traces (hw_hypothesis labels) in
  Sosd.select ~count (Array.map Float.abs rho)
