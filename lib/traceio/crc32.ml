(* Reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the
   variant of zlib/PNG, chosen so archives can be cross-checked with
   any standard tool.

   Slice-by-8: eight 256-entry tables advance the register over eight
   input bytes with eight independent lookups, instead of eight
   dependent byte steps.  Entry [b] of slice [k] is the register after
   byte [b] followed by [k] zero bytes, so slice 0 is the classic
   byte-wise table and a tail shorter than a word runs byte-wise
   through it.  The digests are the byte-wise loop's, bit for bit. *)

(* Built when the module initialises, not lazily: OCaml 5 raises
   [CamlinternalLazy.Undefined] when two domains force one lazy value
   at once, and a telemetry sender domain and the pipeline both
   checksum frames from the first record on.  Slice [k] occupies
   [tables.(256 * k) .. tables.(256 * k + 255)]. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Crc32.update: range out of bounds";
  let t = tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    (* the first four input bytes fold into the register, the next
       four are looked up as they are *)
    let w = String.get_int64_le s !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      t.(1792 + (lo land 0xFF))
      lxor t.(1536 + ((lo lsr 8) land 0xFF))
      lxor t.(1280 + ((lo lsr 16) land 0xFF))
      lxor t.(1024 + ((lo lsr 24) land 0xFF))
      lxor t.(768 + (hi land 0xFF))
      lxor t.(512 + ((hi lsr 8) land 0xFF))
      lxor t.(256 + ((hi lsr 16) land 0xFF))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    (* srclint: allow unsafe-index j ranges over [pos, pos+len) validated above *)
    c := t.((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest s = update 0 s 0 (String.length s)
