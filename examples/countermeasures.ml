(* Countermeasures (Section V-A of the paper).

   Runs the same template attack against three firmware variants:
   - the vulnerable SEAL v3.2 if/elseif/else sampler,
   - a v3.6-style branch-free sampler (mask arithmetic),
   - the v3.2 sampler with a shuffled sampling order.

   The paper recommends shuffling over masking for single-trace
   attacks; this example shows why, and also shows that removing the
   branches does NOT remove the data-dependent (HW) leakage — matching
   the paper's remark that v3.6 "may have a different vulnerability".

   Run with:  dune exec examples/countermeasures.exe *)

let attack_variant rng variant name =
  let n = 96 in
  let device = Reveal.Device.create ~variant ~n () in
  let prof = Reveal.Campaign.profile ~per_value:200 device rng in
  let scope_rng = Mathkit.Prng.split rng and sampler_rng = Mathkit.Prng.split rng in
  let results =
    if variant = Riscv.Sampler_prog.Shuffled then begin
      (* the victim's sampling order is a secret permutation *)
      let perm = Array.init n (fun i -> i) in
      Mathkit.Prng.shuffle sampler_rng perm;
      Reveal.Campaign.attack_trace prof (Reveal.Device.run_shuffled device ~scope_rng ~sampler_rng ~perm)
    end
    else begin
      let _, results = Reveal.Campaign.run_attacks_resilient prof device ~traces:4 ~scope_rng ~sampler_rng in
      results
    end
  in
  let sign_ok = ref 0 and value_ok = ref 0 and total = Array.length results in
  Array.iter
    (fun r ->
      if compare r.Reveal.Campaign.actual 0 = r.Reveal.Campaign.verdict.Sca.Attack.sign then incr sign_ok;
      if r.Reveal.Campaign.actual = r.Reveal.Campaign.verdict.Sca.Attack.value then incr value_ok)
    results;
  Printf.printf "%-28s sign %5.1f%%   value %5.1f%%" name
    (100. *. float !sign_ok /. float total)
    (100. *. float !value_ok /. float total);
  if variant = Riscv.Sampler_prog.Shuffled then
    print_endline "   (values read in SAMPLING order; the coefficient mapping stays secret)"
  else print_newline ()

let () =
  let rng = Mathkit.Prng.create ~seed:77L () in
  print_endline "Attacking three sampler variants with the same template pipeline:";
  attack_variant rng Riscv.Sampler_prog.Vulnerable "SEAL v3.2 (if/elseif/else)";
  attack_variant rng Riscv.Sampler_prog.Branchless "v3.6-style branch-free";
  attack_variant rng Riscv.Sampler_prog.Shuffled "v3.2 + shuffled order";
  print_endline "";
  print_endline "Reading the numbers:";
  print_endline "  - v3.2: signs are perfect (control flow) and values follow Table I;";
  print_endline "    per-coefficient hints collapse SEAL-128 to a complete break (Table III).";
  print_endline "  - branch-free: the 100%-reliable control-flow channel is gone, but the";
  print_endline "    mask arithmetic still leaks Hamming weight -> value recovery persists in";
  print_endline "    part.  Masking alone is not a single-trace defense (Section V-A).";
  print_endline "  - shuffling: window-level recovery still works, but the adversary cannot";
  print_endline "    map values to coefficients, so no per-coordinate hints can be placed:";
  print_endline "    the DBDD instance keeps its full hardness.";
  let lwe = Hints.Lwe.seal_128_1024 in
  Printf.printf "    residual hardness under shuffling: %.1f bikz (~2^%.0f) — unchanged.\n"
    (Hints.Lwe.no_hint_bikz lwe)
    (Hints.Bkz_model.security_bits (Hints.Lwe.no_hint_bikz lwe))
