(* The trace-set archive: magic + versioned header frame + one frame
   per trace record.  See DESIGN.md ("traceio archive format") for the
   byte-level layout. *)

let magic = "REVEALTR"
let version = 3

(* trace_count placeholder while the writer is still streaming; a
   reader that sees it knows the writer never finalised the file *)
let count_unknown = 0xFFFFFFFF

type header = {
  variant : Riscv.Sampler_prog.variant;
  n : int;
  seed : int64;
  samples_per_cycle : int;
  noise_sigma : float;
  trace_count : int;
  meta : (string * string) list;
}

type record = {
  index : int;
  noises : int array;
  samples : Mathkit.Fvec.t;
}

let variant_code = function
  | Riscv.Sampler_prog.Vulnerable -> 0
  | Riscv.Sampler_prog.Branchless -> 1
  | Riscv.Sampler_prog.Shuffled -> 2
  | Riscv.Sampler_prog.Cdt_table -> 3

let variant_of_code ~path = function
  | 0 -> Riscv.Sampler_prog.Vulnerable
  | 1 -> Riscv.Sampler_prog.Branchless
  | 2 -> Riscv.Sampler_prog.Shuffled
  | 3 -> Riscv.Sampler_prog.Cdt_table
  | c -> Error.corruptf "%s: unknown sampler-variant code %d" path c

let variant_name = function
  | Riscv.Sampler_prog.Vulnerable -> "vulnerable (SEAL v3.2)"
  | Riscv.Sampler_prog.Branchless -> "branchless (SEAL v3.6)"
  | Riscv.Sampler_prog.Shuffled -> "shuffled"
  | Riscv.Sampler_prog.Cdt_table -> "cdt-table"

let meta_find h key = List.assoc_opt key h.meta

let header_payload h ~count =
  let b = Buffer.create 128 in
  Binio.put_u8 b (variant_code h.variant);
  Binio.put_u32 b h.n;
  Binio.put_u64 b h.seed;
  Binio.put_u16 b h.samples_per_cycle;
  Binio.put_f64 b h.noise_sigma;
  Binio.put_u32 b count;
  Binio.put_varint b (Int64.of_int (List.length h.meta));
  List.iter
    (fun (k, v) ->
      Binio.put_string b k;
      Binio.put_string b v)
    h.meta;
  Buffer.contents b

let header_of_payload ~path payload =
  let c = Binio.cursor ~name:path payload in
  let variant = variant_of_code ~path (Binio.get_u8 c) in
  let n = Binio.get_u32 c in
  let seed = Binio.get_u64 c in
  let samples_per_cycle = Binio.get_u16 c in
  let noise_sigma = Binio.get_f64 c in
  let trace_count = Binio.get_u32 c in
  let pairs = Binio.get_varint_int c in
  let meta =
    List.init pairs (fun _ ->
        let k = Binio.get_string c in
        let v = Binio.get_string c in
        (k, v))
  in
  Binio.expect_end c;
  if n <= 0 then Error.corruptf "%s: header declares a non-positive coefficient count %d" path n;
  if samples_per_cycle <= 0 then
    Error.corruptf "%s: header declares a non-positive samples_per_cycle %d" path samples_per_cycle;
  { variant; n; seed; samples_per_cycle; noise_sigma; trace_count; meta }

(* --- writing ------------------------------------------------------------ *)

(* metrics handles resolved once at open time (registry access locks);
   [None] when the archive was opened without an enabled obs context *)
type writer_stats = { ws_records : Obs.Metrics.counter; ws_bytes : Obs.Metrics.counter }

type writer = {
  w_path : string;
  oc : out_channel;
  w_header : header;  (* trace_count field unused while open *)
  mutable count : int;
  mutable w_closed : bool;
  w_stats : writer_stats option;
}

let writer_stats_of obs =
  if Obs.Ctx.enabled obs then
    Some
      {
        ws_records = Obs.Ctx.counter obs "traceio.records_written";
        ws_bytes = Obs.Ctx.counter obs "traceio.payload_bytes_written";
      }
  else None

let open_writer ?(obs = Obs.Ctx.disabled) ?(meta = []) ~variant ~n ~seed ~samples_per_cycle
    ~noise_sigma path =
  if n <= 0 then invalid_arg "Archive.open_writer: n must be positive";
  if samples_per_cycle <= 0 then invalid_arg "Archive.open_writer: samples_per_cycle must be positive";
  let h = { variant; n; seed; samples_per_cycle; noise_sigma; trace_count = 0; meta } in
  let oc = Error.open_out_bin path in
  Frame.write_preamble ~path oc ~magic ~version;
  Frame.write ~path oc (header_payload h ~count:count_unknown);
  { w_path = path; oc; w_header = h; count = 0; w_closed = false; w_stats = writer_stats_of obs }

let record_payload ~index ~noises trace =
  (* the plane's exact size, plus room for the index and label varints,
     so a multi-megabyte buffer is not regrown and copied *)
  let b = Buffer.create ((8 * Array.length trace.Power.Ptrace.samples) + Array.length noises + 32) in
  Binio.put_varint b (Int64.of_int index);
  Codec.put_ints b noises;
  Codec.put_plane b trace.Power.Ptrace.samples;
  Buffer.contents b

let append w ~noises trace =
  if w.w_closed then invalid_arg "Archive.append: writer already closed";
  if Array.length noises <> w.w_header.n then
    invalid_arg
      (Printf.sprintf "Archive.append: %d noise labels for an n=%d archive" (Array.length noises) w.w_header.n);
  if trace.Power.Ptrace.samples_per_cycle <> w.w_header.samples_per_cycle then
    invalid_arg
      (Printf.sprintf "Archive.append: trace sampled at %d/cycle, archive at %d/cycle"
         trace.Power.Ptrace.samples_per_cycle w.w_header.samples_per_cycle);
  let payload = record_payload ~index:w.count ~noises trace in
  Frame.write ~path:w.w_path w.oc payload;
  w.count <- w.count + 1;
  match w.w_stats with
  | None -> ()
  | Some s ->
      Obs.Metrics.incr s.ws_records;
      Obs.Metrics.incr ~by:(String.length payload) s.ws_bytes

let close_writer w =
  if not w.w_closed then begin
    w.w_closed <- true;
    Error.wrap_io w.w_path (fun () ->
        (* patch the finalised trace count into the header frame; only a
           fixed-width field changes, so the frame keeps its size *)
        seek_out w.oc (String.length magic + 2);
        Frame.write ~path:w.w_path w.oc (header_payload w.w_header ~count:w.count);
        close_out w.oc)
  end

(* --- reading ------------------------------------------------------------ *)

type reader_stats = {
  rs_obs : Obs.Ctx.t;  (* for the per-skip warning event *)
  rs_records : Obs.Metrics.counter;
  rs_skipped : Obs.Metrics.counter;
  rs_bytes : Obs.Metrics.counter;
}

type reader = {
  r_path : string;
  ic : in_channel;
  header : header;
  mutable next_index : int;
  mutable r_closed : bool;
  r_stats : reader_stats option;
}

let reader_stats_of obs =
  if Obs.Ctx.enabled obs then
    Some
      {
        rs_obs = obs;
        rs_records = Obs.Ctx.counter obs "traceio.records_read";
        rs_skipped = Obs.Ctx.counter obs "traceio.records_skipped";
        rs_bytes = Obs.Ctx.counter obs "traceio.payload_bytes_read";
      }
  else None

let count_read r payload =
  match r.r_stats with
  | None -> ()
  | Some s ->
      Obs.Metrics.incr s.rs_records;
      Obs.Metrics.incr ~by:(String.length payload) s.rs_bytes

let count_skip r msg =
  match r.r_stats with
  | None -> ()
  | Some s ->
      Obs.Metrics.incr s.rs_skipped;
      Obs.Ctx.event ~level:Obs.Ctx.Warn
        ~attrs:[ ("path", Obs.Json.String r.r_path); ("reason", Obs.Json.String msg) ]
        s.rs_obs "traceio.skip"

let open_reader ?(obs = Obs.Ctx.disabled) path =
  let ic = Error.open_in_bin path in
  let fail_with exn = (try close_in ic with Sys_error _ -> ()); raise exn in
  try
    Frame.read_preamble ~path ic ~what:"reveal trace archive" ~magic ~version;
    let header =
      match Frame.read ~path ic with
      | None -> Error.corruptf "%s: missing header frame" path
      | Some payload -> header_of_payload ~path payload
    in
    if header.trace_count = count_unknown then
      Error.corruptf "%s: archive was never finalised (writer not closed) — record count unknown" path;
    { r_path = path; ic; header; next_index = 0; r_closed = false; r_stats = reader_stats_of obs }
  with exn -> fail_with exn

let header r = r.header
let close_reader r =
  if not r.r_closed then begin
    r.r_closed <- true;
    try close_in r.ic with Sys_error _ -> ()
  end

(* A record payload is [index | noise labels | sample plane]; the
   index must be the one the cursor expects next. *)
let decode r payload =
  let c = Binio.cursor ~name:r.r_path payload in
  let index = Binio.get_varint_int c in
  if index <> r.next_index then
    Error.corruptf "%s: record %d found where record %d was expected — records reordered or lost" r.r_path index
      r.next_index;
  let noises = Codec.get_ints c in
  if Array.length noises <> r.header.n then
    Error.corruptf "%s: record %d carries %d noise labels for an n=%d archive" r.r_path index
      (Array.length noises) r.header.n;
  let samples = Codec.get_plane c in
  Binio.expect_end c;
  { index; noises; samples }

(* The cursor's two count checks against the header: at the end, every
   declared record was read; before a frame, one is still due. *)
let check_complete r =
  if r.next_index < r.header.trace_count then
    Error.corruptf "%s: archive truncated — header declares %d records but only %d are present" r.r_path
      r.header.trace_count r.next_index

let check_due r =
  if r.next_index >= r.header.trace_count then
    Error.corruptf "%s: trailing data after the %d records the header declares" r.r_path r.header.trace_count

let next r =
  if r.r_closed then invalid_arg "Archive.next: reader already closed";
  match Frame.read ~path:r.r_path r.ic with
  | None ->
      check_complete r;
      None
  | Some payload ->
      check_due r;
      let rec_ = decode r payload in
      r.next_index <- r.next_index + 1;
      count_read r payload;
      Some rec_

(* Tolerant cursor: a record whose frame fails its CRC — or whose
   verified payload will not decode — is reported as [`Skipped] and the
   cursor moves on to the next frame boundary.  [next_index] advances
   over the skipped slot so the following records' index checks still
   line up.  Structural damage (truncation, bad length field) has no
   boundary to resume from and raises as in {!next}. *)
let try_next r =
  if r.r_closed then invalid_arg "Archive.try_next: reader already closed";
  let skip msg =
    r.next_index <- r.next_index + 1;
    count_skip r msg;
    `Skipped msg
  in
  match Frame.try_read ~path:r.r_path r.ic with
  | `End ->
      check_complete r;
      `End_of_archive
  | `Bad_crc msg ->
      check_due r;
      skip msg
  | `Payload payload -> (
      check_due r;
      match decode r payload with
      | rec_ ->
          r.next_index <- r.next_index + 1;
          count_read r payload;
          `Record rec_
      | exception Error.Corrupt msg -> skip msg)

let next_batch r ~max =
  if max <= 0 then invalid_arg "Archive.next_batch: max must be positive";
  let rec take acc k = if k = 0 then acc else match next r with None -> acc | Some x -> take (x :: acc) (k - 1) in
  Array.of_list (List.rev (take [] max))

let with_reader ?obs path f =
  let r = open_reader ?obs path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> f r)

let fold path f init =
  with_reader path (fun r ->
      let rec loop acc = match next r with None -> acc | Some x -> loop (f acc x) in
      loop init)

(* Surgical copy for the triage minimizer: keep a subset of records
   and/or crop every kept record to one sample span.  The writer
   re-indexes kept records densely (its own counter), so the output is
   a self-consistent archive a strict reader accepts. *)
let crop ~lo ~hi samples =
  let len = Mathkit.Fvec.length samples in
  (* spans are clamped per record: fault drop/dup makes record lengths
     differ, and a span chosen on one record must stay legal on all *)
  let lo_r = min lo len in
  let hi_r = min hi len in
  Mathkit.Fvec.sub samples lo_r (hi_r - lo_r)

let rewrite ?keep ?span ~src ~dst () =
  (match span with
  | Some (lo, hi) when lo < 0 || hi < lo -> invalid_arg "Archive.rewrite: span must satisfy 0 <= lo <= hi"
  | _ -> ());
  (match keep with
  | Some l when List.exists (fun i -> i < 0) l -> invalid_arg "Archive.rewrite: negative record index"
  | _ -> ());
  with_reader src (fun r ->
      let h = header r in
      let w =
        open_writer ~meta:h.meta ~variant:h.variant ~n:h.n ~seed:h.seed
          ~samples_per_cycle:h.samples_per_cycle ~noise_sigma:h.noise_sigma dst
      in
      Fun.protect ~finally:(fun () -> close_writer w) @@ fun () ->
      let kept i = match keep with None -> true | Some l -> List.mem i l in
      let rec loop () =
        match next r with
        | None -> ()
        | Some rec_ ->
            if kept rec_.index then begin
              let samples = match span with None -> rec_.samples | Some (lo, hi) -> crop ~lo ~hi rec_.samples in
              append w ~noises:rec_.noises
                { Power.Ptrace.samples = Mathkit.Fvec.to_array samples; samples_per_cycle = h.samples_per_cycle }
            end;
            loop ()
      in
      loop ();
      w.count)

let file_size path =
  let ic = Error.open_in_bin path in
  Fun.protect ~finally:(fun () -> try close_in ic with Sys_error _ -> ()) (fun () -> in_channel_length ic)
