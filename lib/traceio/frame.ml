(* Chunk framing: every header and record in an archive is one frame,
     u32 payload length | payload bytes | u32 crc32(payload)
   so a reader can stream chunk by chunk, verify each independently,
   and detect truncation at any byte. *)

(* A corrupted length field must not trigger a gigabyte allocation
   before the CRC check gets a chance to reject the frame. *)
let max_payload = 1 lsl 30

let output_u32 oc v =
  let b = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xFF))
  done;
  output_bytes oc b

let input_u32 ~path ic =
  let b = really_input_string ic 4 in
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code b.[i]
  done;
  ignore path;
  !v

let write ~path oc payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.write: payload too large";
  Error.wrap_io path (fun () ->
      output_u32 oc len;
      output_string oc payload;
      output_u32 oc (Crc32.digest payload))

(* The diagnostic of a checksum mismatch over the first [len] bytes of
   [buf], or [None] when they match [stored].  The bytes are read in
   place, so nothing may write [buf] meanwhile. *)
let crc_mismatch ~path buf ~len ~stored =
  let actual = Crc32.update 0 (Bytes.unsafe_to_string buf) 0 len in
  if stored = actual then None
  else
    Some
      (Printf.sprintf "%s: checksum mismatch (stored %08x, computed %08x) — the archive is damaged" path stored
         actual)

(* Shared reader core: one frame's length, payload and stored CRC,
   with only the framing checked.  The whole frame is consumed before
   the checksum can be compared, so the channel is positioned at the
   next frame boundary whatever the comparison says — which is what
   makes skip-and-continue recovery possible.  A damaged length field
   or truncation mid-frame leaves no boundary to resume from and stays
   a hard {!Error.Corrupt}. *)
let read_unverified ~path ic ~into =
  let first =
    try Some (input_char ic)
    with End_of_file -> None
  in
  match first with
  | None -> `End
  | Some c0 ->
      Error.wrap_io path (fun () ->
          let rest = really_input_string ic 3 in
          let len = ref 0 in
          let byte i = if i = 0 then Char.code c0 else Char.code rest.[i - 1] in
          for i = 3 downto 0 do
            len := (!len lsl 8) lor byte i
          done;
          if !len > max_payload then
            Error.corruptf "%s: frame length %d exceeds the format maximum (%d) — damaged length field" path !len
              max_payload;
          let buf = into !len in
          really_input ic buf 0 !len;
          let stored = input_u32 ~path ic in
          `Frame (buf, !len, stored))

let read_result ~path ic =
  match read_unverified ~path ic ~into:Bytes.create with
  | `End -> `End
  | `Frame (buf, len, stored) -> (
      match crc_mismatch ~path buf ~len ~stored with
      | None -> `Payload (Bytes.unsafe_to_string buf)
      | Some msg -> `Bad_crc msg)

(* [read ~path ic] returns the next verified payload, or [None] on a
   clean end of file (EOF exactly at a frame boundary). *)
let read ~path ic =
  match read_result ~path ic with
  | `End -> None
  | `Payload payload -> Some payload
  | `Bad_crc msg -> raise (Error.Corrupt msg)

let try_read = read_result

(* --- files of the family ---------------------------------------------------- *)

(* Every file and stream of the family opens with an 8-byte magic and
   a little-endian u16 format version. *)
let write_preamble ~path oc ~magic ~version =
  Error.wrap_io path (fun () ->
      output_string oc magic;
      output_byte oc (version land 0xFF);
      output_byte oc ((version lsr 8) land 0xFF))

let read_preamble ~path ic ~what ~magic ~version =
  let m = Error.wrap_io path (fun () -> really_input_string ic (String.length magic)) in
  if m <> magic then Error.corruptf "%s: not a %s (magic %S, expected %S)" path what m magic;
  let v = Error.wrap_io path (fun () -> really_input_string ic 2) in
  let v = Char.code v.[0] lor (Char.code v.[1] lsl 8) in
  if v <> version then
    Error.corruptf "%s: unsupported %s version %d (this build reads version %d)" path what v version

let save ~path ~magic ~version payload =
  let oc = Error.open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      write_preamble ~path oc ~magic ~version;
      write ~path oc payload;
      Error.wrap_io path (fun () -> flush oc))

let load ~path ~what ~magic ~version =
  let ic = Error.open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      read_preamble ~path ic ~what ~magic ~version;
      let payload =
        match read ~path ic with Some p -> p | None -> Error.corruptf "%s: %s has no payload frame" path what
      in
      if Error.wrap_io path (fun () -> In_channel.input_char ic) <> None then
        Error.corruptf "%s: trailing data after the %s payload frame" path what;
      payload)
