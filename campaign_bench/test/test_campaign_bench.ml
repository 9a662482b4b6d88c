(* Tests for the campaign benchmark itself, on toy sizes (n = 64):

   - the metric names each run prints are exactly those BENCHMARK.json
     declares (end_to_end for --trace 0, per_layer for --trace 1);
   - every count-type per-layer metric repeats exactly on a second
     traced run with the same seed;
   - the traced run's results digest equals the untraced run's. *)

let exe = "../campaign_bench.exe"
let seed = "11"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("test_campaign_bench: " ^ s); exit 1) fmt

let member key j =
  match Obs.Json.member key j with Some v -> v | None -> fail "missing key %S" key

let parse what s = match Obs.Json.parse s with Ok j -> j | Error e -> fail "%s: bad JSON: %s" what e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* Run the benchmark, returning its stdout lines; stderr is discarded. *)
let run args =
  let argv = Array.of_list (exe :: args) in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe argv Unix.stdin out_w null in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
  let out = lines [] in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> out
  | _ -> fail "%s exited abnormally" (String.concat " " args)

type result = { metrics : (string * (float * string)) list; digest : string }

let bench ~workload ~trace =
  let out =
    run [ "--toy"; "--workload"; workload; "--seed"; seed; "--seconds"; "0.2"; "--trace"; trace ] in
  let last = match List.rev out with l :: _ -> l | [] -> fail "%s: no output" workload in
  let j = parse workload last in
  if member "correct" j <> Obs.Json.Bool true then fail "%s: not correct" workload;
  let metrics =
    match member "metrics" j with
    | Obs.Json.Obj fields ->
        List.map
          (fun (name, v) ->
            match (Obs.Json.to_float_opt (member "value" v), Obs.Json.to_string_opt (member "unit" v)) with
            | Some value, Some unit -> (name, (value, unit))
            | _ -> fail "%s: malformed metric %s" workload name)
          fields
    | _ -> fail "%s: metrics is not an object" workload
  in
  let digest =
    match List.find_opt (fun l -> String.length l > 7 && String.sub l 0 7 = "digest ") out with
    | Some l -> String.sub l 7 (String.length l - 7)
    | None -> fail "%s: no digest line" workload
  in
  { metrics; digest }

(* The names listed in one section of BENCHMARK.json. *)
let declared section =
  let j = parse "BENCHMARK.json" (read_file "../../BENCHMARK.json") in
  match member section j with
  | Obs.Json.List items ->
      List.map
        (fun it ->
          match Obs.Json.to_string_opt (member "name" it) with Some n -> n | None -> fail "unnamed %s entry" section)
        items
  | _ -> fail "BENCHMARK.json: %s is not a list" section

let same_names workload section r =
  let printed = List.sort compare (List.map fst r.metrics) in
  let expected = List.sort compare (declared section) in
  if printed <> expected then
    fail "%s: printed metrics differ from BENCHMARK.json %s:\n  printed:  %s\n  declared: %s" workload section
      (String.concat " " printed) (String.concat " " expected)

(* Counts, byte and allocation totals and bikz estimates are pure
   functions of the seed. *)
let is_count (name, (_, unit)) = List.mem unit [ "count"; "bytes"; "words"; "bikz" ] || name = "reveal.retry_yield"

let () =
  List.iter
    (fun workload ->
      let untraced = bench ~workload ~trace:"0" in
      same_names workload "end_to_end" untraced;
      let first = bench ~workload ~trace:"1" and second = bench ~workload ~trace:"1" in
      same_names workload "per_layer" first;
      List.iter
        (fun ((name, (v, _)) as metric) ->
          if is_count metric then
            match List.assoc_opt name second.metrics with
            | Some (v', _) when Int64.bits_of_float v = Int64.bits_of_float v' -> ()
            | Some (v', _) -> fail "%s: count %s differs between same-seed runs: %.17g vs %.17g" workload name v v'
            | None -> fail "%s: %s missing from the second run" workload name)
        first.metrics;
      if first.digest <> untraced.digest then
        fail "%s: traced digest %s differs from untraced %s" workload first.digest untraced.digest;
      if second.digest <> first.digest then fail "%s: traced digests differ between same-seed runs" workload;
      Printf.printf "%s: metric names, repeated counts and traced digest ok\n" workload)
    (* live-paper runs by hand only, but prints the same metrics *)
    (List.sort_uniq compare ("live-paper" :: declared "workloads"))
