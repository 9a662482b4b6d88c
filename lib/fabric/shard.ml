(* Shard planning and the result file a worker hands back.  The codec
   mirrors the profile cache: svarints for small signed fields, f64
   bit patterns for posteriors, one CRC frame around the lot. *)

let magic = "REVEALSH"
let version = 1

type range = { lo : int; hi : int }

let plan ~traces ~workers =
  if workers <= 0 then invalid_arg "Shard.plan: workers must be positive";
  if traces < 0 then invalid_arg "Shard.plan: negative trace count";
  let base = traces / workers and extra = traces mod workers in
  Array.init workers (fun i ->
      let lo = (i * base) + min i extra in
      let hi = lo + base + (if i < extra then 1 else 0) in
      { lo; hi })

type result = {
  shard : int;
  range : range;
  corrupt_skipped : int;
  results : Reveal.Campaign.coefficient_result array;
}

(* --- codec -------------------------------------------------------------- *)

let grade_code = function
  | Reveal.Campaign.Confident -> 0
  | Reveal.Campaign.Tentative -> 1
  | Reveal.Campaign.SignOnly -> 2
  | Reveal.Campaign.Unknown -> 3

let grade_of_code ~path = function
  | 0 -> Reveal.Campaign.Confident
  | 1 -> Reveal.Campaign.Tentative
  | 2 -> Reveal.Campaign.SignOnly
  | 3 -> Reveal.Campaign.Unknown
  | c -> Traceio.Error.corruptf "%s: unknown grade code %d" path c

let put_pairs b pairs =
  Traceio.Binio.put_varint b (Int64.of_int (Array.length pairs));
  Array.iter
    (fun (v, p) ->
      Traceio.Binio.put_svarint b (Int64.of_int v);
      Traceio.Binio.put_f64 b p)
    pairs

let get_pairs c =
  let len = Traceio.Binio.get_varint_int c in
  Array.init len (fun _ ->
      let v = Int64.to_int (Traceio.Binio.get_svarint c) in
      let p = Traceio.Binio.get_f64 c in
      (v, p))

let put_result b (r : Reveal.Campaign.coefficient_result) =
  Traceio.Binio.put_svarint b (Int64.of_int r.actual);
  Traceio.Binio.put_svarint b (Int64.of_int r.verdict.Sca.Attack.sign);
  Traceio.Binio.put_svarint b (Int64.of_int r.verdict.Sca.Attack.value);
  put_pairs b r.verdict.Sca.Attack.posterior;
  put_pairs b r.posterior_all;
  Traceio.Binio.put_u8 b (grade_code r.grade);
  match r.recovery with
  | Reveal.Campaign.Clean -> Traceio.Binio.put_u8 b 0
  | Reveal.Campaign.Retried k ->
      Traceio.Binio.put_u8 b 1;
      Traceio.Binio.put_varint b (Int64.of_int k)
  | Reveal.Campaign.Unrecoverable -> Traceio.Binio.put_u8 b 2

let get_result ~path c =
  let actual = Int64.to_int (Traceio.Binio.get_svarint c) in
  let sign = Int64.to_int (Traceio.Binio.get_svarint c) in
  let value = Int64.to_int (Traceio.Binio.get_svarint c) in
  let posterior = get_pairs c in
  let posterior_all = get_pairs c in
  let grade = grade_of_code ~path (Traceio.Binio.get_u8 c) in
  let recovery =
    match Traceio.Binio.get_u8 c with
    | 0 -> Reveal.Campaign.Clean
    | 1 -> Reveal.Campaign.Retried (Traceio.Binio.get_varint_int c)
    | 2 -> Reveal.Campaign.Unrecoverable
    | k -> Traceio.Error.corruptf "%s: unknown recovery code %d" path k
  in
  {
    Reveal.Campaign.actual;
    verdict = { Sca.Attack.sign; value; posterior };
    posterior_all;
    grade;
    recovery;
  }

let result_payload r =
  let b = Buffer.create 4096 in
  Traceio.Binio.put_varint b (Int64.of_int r.shard);
  Traceio.Binio.put_varint b (Int64.of_int r.range.lo);
  Traceio.Binio.put_varint b (Int64.of_int r.range.hi);
  Traceio.Binio.put_varint b (Int64.of_int r.corrupt_skipped);
  Traceio.Binio.put_varint b (Int64.of_int (Array.length r.results));
  Array.iter (put_result b) r.results;
  Buffer.contents b

let result_of_payload ~path payload =
  let c = Traceio.Binio.cursor ~name:path payload in
  let shard = Traceio.Binio.get_varint_int c in
  let lo = Traceio.Binio.get_varint_int c in
  let hi = Traceio.Binio.get_varint_int c in
  let corrupt_skipped = Traceio.Binio.get_varint_int c in
  if hi < lo then Traceio.Error.corruptf "%s: shard range [%d,%d) is inverted" path lo hi;
  let len = Traceio.Binio.get_varint_int c in
  let results = Array.init len (fun _ -> get_result ~path c) in
  Traceio.Binio.expect_end c;
  { shard; range = { lo; hi }; corrupt_skipped; results }

let save path r = Traceio.Frame.save ~path ~magic ~version (result_payload r)

let load path =
  result_of_payload ~path (Traceio.Frame.load ~path ~what:"shard result file" ~magic ~version)

(* --- merge -------------------------------------------------------------- *)

let merge prof results =
  let sorted = List.sort (fun a b -> compare a.shard b.shard) results in
  let rec check expect_shard expect_lo = function
    | [] -> Ok ()
    | r :: rest ->
        if r.shard <> expect_shard then
          Error
            (if r.shard < expect_shard then Printf.sprintf "duplicate result for shard %d" r.shard
             else Printf.sprintf "missing result for shard %d" expect_shard)
        else if r.range.lo <> expect_lo then
          Error
            (Printf.sprintf "shard %d covers [%d,%d) but the previous shard ended at %d — gap or overlap" r.shard
               r.range.lo r.range.hi expect_lo)
        else check (expect_shard + 1) r.range.hi rest
  in
  match check 0 0 sorted with
  | Error _ as e -> e
  | Ok () ->
      let merged = Array.concat (List.map (fun r -> r.results) sorted) in
      let corrupt_skipped = List.fold_left (fun acc r -> acc + r.corrupt_skipped) 0 sorted in
      Ok (Reveal.Campaign.stats_of_results ~corrupt_skipped prof merged, merged)
