type t = {
  ram : Bytes.t;
  mutable mmio_read : (int -> int32) option;
}

let mmio_base = 0x80000000

let create sz =
  if sz <= 0 || sz land 3 <> 0 then invalid_arg "Memory.create: size must be positive and word aligned";
  { ram = Bytes.make sz '\000'; mmio_read = None }

let clear m =
  Bytes.fill m.ram 0 (Bytes.length m.ram) '\000';
  m.mmio_read <- None

let set_mmio_read m f = m.mmio_read <- Some f

let check m addr bytes =
  if addr < 0 || addr + bytes > Bytes.length m.ram then
    invalid_arg (Printf.sprintf "Memory: access at 0x%x out of range" addr)

let is_mmio addr = addr >= mmio_base

(* Words travel as ints holding the unsigned 32-bit value: an [int32]
   result would be boxed on every fetch. *)
let load_word m addr =
  if is_mmio addr then
    match m.mmio_read with
    | Some f -> Int32.to_int (f addr) land 0xFFFFFFFF
    | None -> invalid_arg "Memory.load_word: MMIO read with no handler"
  else begin
    if addr land 3 <> 0 then invalid_arg "Memory.load_word: unaligned";
    check m addr 4;
    Int32.to_int (Bytes.get_int32_le m.ram addr) land 0xFFFFFFFF
  end

let store_word m addr v =
  if is_mmio addr then invalid_arg "Memory.store_word: MMIO write with no handler";
  if addr land 3 <> 0 then invalid_arg "Memory.store_word: unaligned";
  check m addr 4;
  Bytes.set_int32_le m.ram addr (Int32.of_int v)

let load_byte_u m addr =
  check m addr 1;
  Char.code (Bytes.get m.ram addr)

let load_byte m addr =
  let v = load_byte_u m addr in
  if v >= 0x80 then v - 0x100 else v

let load_half_u m addr =
  if addr land 1 <> 0 then invalid_arg "Memory.load_half: unaligned";
  check m addr 2;
  Bytes.get_uint16_le m.ram addr

let load_half m addr =
  let v = load_half_u m addr in
  if v >= 0x8000 then v - 0x10000 else v

let store_byte m addr v =
  check m addr 1;
  Bytes.set m.ram addr (Char.chr (v land 0xFF))

let store_half m addr v =
  if addr land 1 <> 0 then invalid_arg "Memory.store_half: unaligned";
  check m addr 2;
  Bytes.set_uint16_le m.ram addr (v land 0xFFFF)

let load_program m addr words = Array.iteri (fun i w -> store_word m (addr + (4 * i)) (Int32.to_int w)) words
