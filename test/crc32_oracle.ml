(* Byte-wise reference CRC-32 — the loop [Traceio.Crc32] ran before it
   went slice-by-8, kept verbatim as the oracle test_traceio holds the
   slice-by-8 digests to, bit for bit. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    (* srclint: allow unsafe-index i ranges over [pos, pos+len) validated above *)
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
