(* The trial planner: one master seed expands into a table of randomized
   campaign scenarios.  Everything downstream — the fuzzer's worker argv,
   the repro line a novel failure prints, the minimizer's replay — is a
   pure function of one trial record, so the table IS the experiment. *)

type gate_profile = Default | Aggressive | Paranoid

type trial = {
  id : int;
  variant : Riscv.Sampler_prog.variant;
  intensity : float;
  seed : int;
  gate : gate_profile;
  traces : int;
  n : int;
  per_value : int;
}

(* One name table per trial field: the CLI's enum flags, [flags], the
   describe line, the JSON record and the signature format all read
   these, so they can never drift. *)
let variant_names =
  [
    ("v32", Riscv.Sampler_prog.Vulnerable);
    ("v36", Riscv.Sampler_prog.Branchless);
    ("shuffled", Riscv.Sampler_prog.Shuffled);
    ("cdt", Riscv.Sampler_prog.Cdt_table);
  ]

let gate_names = [ ("default", Default); ("aggressive", Aggressive); ("paranoid", Paranoid) ]
let name_in table v = fst (List.find (fun (_, x) -> x = v) table)
let variant_to_string = name_in variant_names
let gate_to_string = name_in gate_names

(* The sampling space.  n is pinned: profiling needs every candidate
   value to appear twice per run (n >= 58 for the 29-value table), and
   64 keeps trials cheap without changing the shapes under test. *)
let trial_n = 64
let intensities = [| 0.0; 0.25; 0.5; 0.75; 1.0; 1.5 |]
let per_values = [| 24; 32; 40 |]
let gates = [| Default; Aggressive; Paranoid |]

let variants =
  [|
    Riscv.Sampler_prog.Vulnerable;
    Riscv.Sampler_prog.Branchless;
    Riscv.Sampler_prog.Shuffled;
    Riscv.Sampler_prog.Cdt_table;
  |]

let pick rng arr = arr.(Mathkit.Prng.int rng (Array.length arr))

(* Fields draw in a fixed order from one sequential stream, so the
   table is deterministic in the master seed and a longer run's table
   extends a shorter one's (prefix property — rerunning with more
   trials revisits exactly the old scenarios first). *)
let plan ~master_seed ~trials =
  if trials < 0 then invalid_arg "Plan.plan: trials must be non-negative";
  let rng = Mathkit.Prng.create ~seed:(Int64.of_int master_seed) () in
  Array.init trials (fun id ->
      let variant = pick rng variants in
      let intensity = pick rng intensities in
      let seed = Mathkit.Prng.int rng 1_000_000 in
      let gate = pick rng gates in
      let traces = 1 + Mathkit.Prng.int rng 2 in
      let per_value = pick rng per_values in
      { id; variant; intensity; seed; gate; traces; n = trial_n; per_value })

let describe t =
  Printf.sprintf "variant=%s intensity=%g seed=%d gate=%s traces=%d per-value=%d n=%d"
    (variant_to_string t.variant) t.intensity t.seed (gate_to_string t.gate) t.traces t.per_value t.n

(* The scenario as [reveal trial] flags: what the fuzzer's workers run
   and what the repro line prints. *)
let flags t =
  [
    "--variant";
    variant_to_string t.variant;
    "--intensity";
    Printf.sprintf "%g" t.intensity;
    "--seed";
    string_of_int t.seed;
    "--gate";
    gate_to_string t.gate;
    "--traces";
    string_of_int t.traces;
    "--per-value";
    string_of_int t.per_value;
  ]

(* The repro contract (README "Fuzzing & triage"): this one line,
   pasted into a shell, re-runs the scenario in-process and exits
   nonzero iff the verdict is a failure. *)
let repro_command ?archive ~exe t =
  String.concat " " (exe :: "trial" :: flags t)
  ^ match archive with None -> "" | Some a -> " --archive " ^ Filename.quote a

let to_json t =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int t.id);
      ("variant", Obs.Json.String (variant_to_string t.variant));
      ("intensity", Obs.Json.Float t.intensity);
      ("seed", Obs.Json.Int t.seed);
      ("gate", Obs.Json.String (gate_to_string t.gate));
      ("traces", Obs.Json.Int t.traces);
      ("n", Obs.Json.Int t.n);
      ("per_value", Obs.Json.Int t.per_value);
    ]
