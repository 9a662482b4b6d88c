(* Little-endian primitives on Buffer (writing) and a bounds-checked
   cursor (reading).  All read failures are Error.Corrupt: by the time
   a cursor exists the bytes came off disk successfully, so any
   shortfall means the file is damaged, not the OS. *)

let put_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Binio.put_u8: out of range";
  Buffer.add_char b (Char.chr v)

let put_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg "Binio.put_u16: out of range";
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

let put_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Binio.put_u32: out of range";
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let put_u64 b (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let put_f64 b v = put_u64 b (Int64.bits_of_float v)

(* Unsigned LEB128 over the full 64-bit range. *)
let put_varint b (v : int64) =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let byte = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let zigzag (v : int64) = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)
let unzigzag (v : int64) = Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))
let put_svarint b v = put_varint b (zigzag v)

let put_string b s =
  put_varint b (Int64.of_int (String.length s));
  Buffer.add_string b s

type cursor = { data : string; mutable pos : int; name : string }

let cursor ?(name = "buffer") data = { data; pos = 0; name }
let remaining c = String.length c.data - c.pos
let at_end c = remaining c = 0

let need c n =
  if remaining c < n then
    Error.corruptf "%s: truncated record (need %d more bytes at offset %d of %d)" c.name n c.pos
      (String.length c.data)

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = Char.code c.data.[c.pos] lor (Char.code c.data.[c.pos + 1] lsl 8) in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
  done;
  c.pos <- c.pos + 4;
  !v

let get_u64 c =
  need c 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let get_f64 c = Int64.float_of_bits (get_u64 c)

let get_varint c =
  let v = ref 0L and shift = ref 0 and continue_ = ref true in
  while !continue_ do
    if !shift > 63 then Error.corruptf "%s: varint longer than 10 bytes at offset %d" c.name c.pos;
    let byte = get_u8 c in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte land 0x7F)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue_ := false
  done;
  !v

let get_svarint c = unzigzag (get_varint c)

let get_varint_int c =
  let v = get_varint c in
  if Int64.compare v (Int64.of_int max_int) > 0 then
    Error.corruptf "%s: varint %Lu does not fit an OCaml int" c.name v;
  Int64.to_int v

(* Bulk decoders (the archive's sample plane) read whole runs of
   words straight out of the payload rather than one field call at a
   time.  The count is checked against [remaining c / 8], never as
   [8 * count], so a damaged count cannot overflow past the check. *)
let claim_words c count =
  if count < 0 || count > remaining c / 8 then
    Error.corruptf "%s: %d words claimed at offset %d but only %d bytes remain" c.name count c.pos (remaining c);
  let p = c.pos in
  c.pos <- p + (8 * count);
  p

let contents c = c.data

let get_string c =
  let len = get_varint_int c in
  need c len;
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let expect_end c =
  if not (at_end c) then
    Error.corruptf "%s: %d trailing bytes after the last field" c.name (remaining c)
