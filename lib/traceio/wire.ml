(* Live telemetry over a byte pipe: a preamble, then CRC-framed
   tagged frames and a mandatory end frame, so a cut connection is
   never mistaken for a clean end.  See wire.mli for the byte-level
   layout. *)

let magic = "REVEALWS"
let version = 1

let tag_telemetry = 'T'
let tag_end = 'E'

let tagged tag payload =
  let b = Buffer.create (String.length payload + 1) in
  Buffer.add_char b tag;
  Buffer.add_string b payload;
  Buffer.contents b

(* Split a verified frame payload into its tag and body.  An empty
   payload cannot have come from a sender, so it is structural. *)
let untag ~peer payload =
  if String.length payload = 0 then Error.corruptf "%s: empty wire frame" peer;
  (payload.[0], String.sub payload 1 (String.length payload - 1))

type telemetry_sender = {
  ts_peer : string;
  ts_oc : out_channel;
  mutable ts_count : int;
  mutable ts_finished : bool;
}

let create_telemetry_sender ~peer oc =
  Error.wrap_io peer (fun () ->
      output_string oc magic;
      output_string oc (String.init 2 (fun i -> Char.chr ((version lsr (8 * i)) land 0xFF)));
      flush oc);
  { ts_peer = peer; ts_oc = oc; ts_count = 0; ts_finished = false }

let telemetry_send s line =
  if s.ts_finished then invalid_arg "Wire.telemetry_send: sender already finished";
  if String.length line = 0 then invalid_arg "Wire.telemetry_send: empty line";
  Frame.write ~path:s.ts_peer s.ts_oc (tagged tag_telemetry line);
  Error.wrap_io s.ts_peer (fun () -> flush s.ts_oc);
  s.ts_count <- s.ts_count + 1

let telemetry_count s = s.ts_count

let telemetry_finish s =
  if not s.ts_finished then begin
    s.ts_finished <- true;
    let b = Buffer.create 4 in
    Binio.put_u32 b s.ts_count;
    Frame.write ~path:s.ts_peer s.ts_oc (tagged tag_end (Buffer.contents b));
    Error.wrap_io s.ts_peer (fun () -> flush s.ts_oc)
  end

type telemetry_receiver = {
  tr_peer : string;
  tr_ic : in_channel;
  tr_strict : bool;
  tr_close : unit -> unit;
  mutable tr_next_index : int;
  mutable tr_skipped : int;
  mutable tr_finished : bool;
  mutable tr_closed : bool;
}

let open_telemetry_receiver ?(strict = false) ?(close = ignore) ~peer ic =
  let m = Error.wrap_io peer (fun () -> really_input_string ic (String.length magic)) in
  if m <> magic then Error.corruptf "%s: not a reveal wire stream (magic %S, expected %S)" peer m magic;
  let v = Error.wrap_io peer (fun () -> really_input_string ic 2) in
  let v = Char.code v.[0] lor (Char.code v.[1] lsl 8) in
  if v <> version then
    Error.corruptf "%s: unsupported wire version %d (this build speaks version %d)" peer v version;
  {
    tr_peer = peer;
    tr_ic = ic;
    tr_strict = strict;
    tr_close = close;
    tr_next_index = 0;
    tr_skipped = 0;
    tr_finished = false;
    tr_closed = false;
  }

let telemetry_skip_or_raise r msg =
  if r.tr_strict then Error.corruptf "%s: %s" r.tr_peer msg
  else begin
    r.tr_next_index <- r.tr_next_index + 1;
    r.tr_skipped <- r.tr_skipped + 1;
    `Skipped msg
  end

let telemetry_recv r =
  if r.tr_finished then `End_of_stream
  else
    match Frame.try_read ~path:r.tr_peer r.tr_ic with
    | `End ->
        Error.corruptf "%s: connection closed mid-stream after %d telemetry slots (no end frame)"
          r.tr_peer r.tr_next_index
    | `Bad_crc msg -> telemetry_skip_or_raise r msg
    | `Payload payload -> (
        match untag ~peer:r.tr_peer payload with
        | t, body when t = tag_telemetry ->
            r.tr_next_index <- r.tr_next_index + 1;
            `Line body
        | t, body when t = tag_end ->
            let c = Binio.cursor ~name:r.tr_peer body in
            let count = Binio.get_u32 c in
            Binio.expect_end c;
            if count <> r.tr_next_index then
              Error.corruptf "%s: end frame declares %d telemetry slots but %d were streamed"
                r.tr_peer count r.tr_next_index;
            r.tr_finished <- true;
            `End_of_stream
        | t, _ -> Error.corruptf "%s: unknown wire frame tag %C" r.tr_peer t)

let telemetry_skipped r = r.tr_skipped

let close_telemetry_receiver r =
  if not r.tr_closed then begin
    r.tr_closed <- true;
    r.tr_close ()
  end
