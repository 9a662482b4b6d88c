(* Array codecs for the sample and label streams.

   The archive stores a record's samples as a raw plane: a varint
   count, then each sample's IEEE-754 bits as one little-endian u64
   word.  Decode is a word load per sample and reproduces the exact
   bits, NaN payloads included.  Scope noise fills the low mantissa
   bits, so a delta code saves almost nothing on real traces. *)

let put_plane b xs =
  Binio.put_varint b (Int64.of_int (Array.length xs));
  for i = 0 to Array.length xs - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float xs.(i))
  done

(* Decoded straight into a fresh unboxed vector, the one every
   consumer reads: no intermediate [float array] per record. *)
let get_plane c =
  let n = Binio.get_varint_int c in
  let pos = Binio.claim_words c n in
  let s = Binio.contents c in
  let v = Mathkit.Fvec.create n in
  let buf = Mathkit.Fvec.buffer v in
  for i = 0 to n - 1 do
    Bigarray.Array1.set buf i (Int64.float_of_bits (String.get_int64_le s (pos + (8 * i))))
  done;
  v

(* The profile cache's float arrays (template means, covariance rows,
   priors): deltas of consecutive IEEE-754 bit patterns, zigzag +
   LEB128, lossless. *)
let put_floats b xs =
  Binio.put_varint b (Int64.of_int (Array.length xs));
  let prev = ref 0L in
  Array.iter
    (fun x ->
      let bits = Int64.bits_of_float x in
      Binio.put_svarint b (Int64.sub bits !prev);
      prev := bits)
    xs

let get_floats c =
  let n = Binio.get_varint_int c in
  if n > Binio.remaining c then Error.corruptf "float array claims %d elements but only %d bytes remain" n (Binio.remaining c);
  let prev = ref 0L in
  Array.init n (fun _ ->
      let bits = Int64.add !prev (Binio.get_svarint c) in
      prev := bits;
      Int64.float_of_bits bits)

(* Small signed values around zero (noise labels): plain zigzag. *)
let put_ints b xs =
  Binio.put_varint b (Int64.of_int (Array.length xs));
  Array.iter (fun x -> Binio.put_svarint b (Int64.of_int x)) xs

let get_ints c =
  let n = Binio.get_varint_int c in
  if n > Binio.remaining c then Error.corruptf "int array claims %d elements but only %d bytes remain" n (Binio.remaining c);
  Array.init n (fun _ ->
      let v = Binio.get_svarint c in
      if Int64.compare v (Int64.of_int max_int) > 0 || Int64.compare v (Int64.of_int min_int) < 0 then
        Error.corruptf "int array element %Ld does not fit an OCaml int" v;
      Int64.to_int v)
