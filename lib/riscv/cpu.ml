type t = {
  mem : Memory.t;
  regs : int array;  (** unsigned 32-bit values *)
  mutable pc : int;
  mutable cycle : int;
  mutable retired : int;
  mutable halted : bool;
  tracer : Trace.event -> unit;
  cycle_model : Inst.klass -> int;
  (* Decode cache, indexed by pc / 4: the word last fetched from that
     address and its decoding.  A fetch whose word differs re-decodes,
     so a store into the code stays exact without invalidation; -1 (no
     32-bit word) marks an empty slot.  Both grow to the highest pc
     fetched. *)
  mutable fetched : int array;
  mutable decoded : Inst.t array;
  (* The step's results, overwritten by every step: the register
     written (0 when none: x0 ignores writes), its new value, the next
     pc, the branch direction, the bus address (-1 when the step moves
     no datum) with the datum, and whether the step halts. *)
  mutable rd : Inst.reg;
  mutable value : int;
  mutable next_pc : int;
  mutable taken : bool;
  mutable mem_addr : int;
  mutable mem_value : int;
  mutable halt : bool;
}

let u32 x = x land 0xFFFFFFFF
let signed32 x = if x land 0x80000000 <> 0 then x - 0x100000000 else x

(* Typical PicoRV32 latencies (no look-ahead memory interface):
   regular ALU ops ~3 cycles, memory ops ~5, taken control flow ~5,
   MUL (with the parallel multiplier option) ~5, DIV bit-serial ~38. *)
let cycles_of_class = function
  | Inst.K_arith | Inst.K_arith_imm -> 3
  | Inst.K_mul -> 5
  | Inst.K_div -> 38
  | Inst.K_load -> 5
  | Inst.K_store -> 5
  | Inst.K_branch_taken -> 5
  | Inst.K_branch_not_taken -> 3
  | Inst.K_jump -> 5
  | Inst.K_system -> 3

let create ?(tracer = fun _ -> ()) ?(cycle_model = cycles_of_class) mem =
  {
    mem;
    regs = Array.make 32 0;
    pc = 0;
    cycle = 0;
    retired = 0;
    halted = false;
    tracer;
    cycle_model;
    fetched = [||];
    decoded = [||];
    rd = 0;
    value = 0;
    next_pc = 0;
    taken = true;
    mem_addr = -1;
    mem_value = 0;
    halt = false;
  }

let pc cpu = cpu.pc
let cycle cpu = cpu.cycle
let retired cpu = cpu.retired
let halted cpu = cpu.halted
let reg cpu r = cpu.regs.(r)

(* Low 32 bits of the 64-bit product of two unsigned 32-bit values. *)
let mul_lo a b =
  let a0 = a land 0xFFFF and a1 = a lsr 16 in
  u32 ((a0 * b) + (((a1 * b) land 0xFFFF) lsl 16))

(* High 32 bits of the unsigned 64-bit product. *)
let mulhu_32 a b =
  let hi, lo = Mathkit.Modular.mul128 a b in
  (* product = hi * 2^62 + lo, total < 2^64 so hi < 4 *)
  u32 ((hi lsl 30) lor (lo lsr 32))

let mulh_signed a b =
  (* |operands| <= 2^31 so the product fits Int64 exactly. *)
  let p = Int64.mul (Int64.of_int (signed32 a)) (Int64.of_int (signed32 b)) in
  u32 (Int64.to_int (Int64.shift_right p 32))

let mulhsu_32 a b =
  let p = Int64.mul (Int64.of_int (signed32 a)) (Int64.of_int b) in
  u32 (Int64.to_int (Int64.shift_right p 32))

let div_signed a b =
  let a = signed32 a and b = signed32 b in
  if b = 0 then 0xFFFFFFFF
  else if a = -0x80000000 && b = -1 then 0x80000000
  else u32 (a / b)

let rem_signed a b =
  let a = signed32 a and b = signed32 b in
  if b = 0 then u32 a else if a = -0x80000000 && b = -1 then 0 else u32 (a mod b)

let div_unsigned a b = if b = 0 then 0xFFFFFFFF else a / b
let rem_unsigned a b = if b = 0 then a else a mod b

(* Cache slots for every pc up to [slot], with as many again to spare. *)
let grow_cache cpu slot =
  let size = Int.max 64 (2 * (slot + 1)) and have = Array.length cpu.fetched in
  let fetched = Array.make size (-1) and decoded = Array.make size Inst.Ebreak in
  Array.blit cpu.fetched 0 fetched 0 have;
  Array.blit cpu.decoded 0 decoded 0 have;
  cpu.fetched <- fetched;
  cpu.decoded <- decoded

(* The instruction at [pc], whose word is [word].  Code runs from RAM;
   a pc in the MMIO window is decoded afresh every time. *)
let decode_at cpu pc word =
  if pc >= Memory.mmio_base then Codec.decode (Int32.of_int word)
  else begin
    let slot = pc lsr 2 in
    if slot >= Array.length cpu.fetched then grow_cache cpu slot;
    if cpu.fetched.(slot) <> word then begin
      cpu.decoded.(slot) <- Codec.decode (Int32.of_int word);
      cpu.fetched.(slot) <- word
    end;
    cpu.decoded.(slot)
  end

let wr cpu rd value =
  cpu.rd <- rd;
  cpu.value <- u32 value

let branch cpu pc cond off = if cond then cpu.next_pc <- u32 (pc + off) else cpu.taken <- false

let load cpu rd addr value =
  wr cpu rd value;
  cpu.mem_addr <- addr;
  cpu.mem_value <- u32 value

let store cpu addr datum =
  cpu.mem_addr <- addr;
  cpu.mem_value <- datum

let step cpu =
  if cpu.halted then invalid_arg "Cpu.step: already halted";
  let pc = cpu.pc in
  let inst = decode_at cpu pc (Memory.load_word cpu.mem pc) in
  let regs = cpu.regs in
  cpu.rd <- 0;
  cpu.next_pc <- u32 (pc + 4);
  cpu.taken <- true;
  cpu.mem_addr <- -1;
  cpu.halt <- false;
  (let open Inst in
   match inst with
   | Lui (rd, imm) -> wr cpu rd (imm lsl 12)
   | Auipc (rd, imm) -> wr cpu rd (pc + (imm lsl 12))
   | Jal (rd, off) ->
       wr cpu rd (pc + 4);
       cpu.next_pc <- u32 (pc + off)
   | Jalr (rd, rs1, imm) ->
       cpu.next_pc <- u32 (regs.(rs1) + imm) land lnot 1;
       wr cpu rd (pc + 4)
   | Beq (rs1, rs2, off) -> branch cpu pc (regs.(rs1) = regs.(rs2)) off
   | Bne (rs1, rs2, off) -> branch cpu pc (regs.(rs1) <> regs.(rs2)) off
   | Blt (rs1, rs2, off) -> branch cpu pc (signed32 (regs.(rs1)) < signed32 (regs.(rs2))) off
   | Bge (rs1, rs2, off) -> branch cpu pc (signed32 (regs.(rs1)) >= signed32 (regs.(rs2))) off
   | Bltu (rs1, rs2, off) -> branch cpu pc (regs.(rs1) < regs.(rs2)) off
   | Bgeu (rs1, rs2, off) -> branch cpu pc (regs.(rs1) >= regs.(rs2)) off
   | Lb (rd, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       load cpu rd addr (Memory.load_byte cpu.mem addr)
   | Lh (rd, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       load cpu rd addr (Memory.load_half cpu.mem addr)
   | Lw (rd, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       load cpu rd addr (Memory.load_word cpu.mem addr)
   | Lbu (rd, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       load cpu rd addr (Memory.load_byte_u cpu.mem addr)
   | Lhu (rd, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       load cpu rd addr (Memory.load_half_u cpu.mem addr)
   | Sb (rs2, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       Memory.store_byte cpu.mem addr (regs.(rs2));
       store cpu addr (regs.(rs2) land 0xFF)
   | Sh (rs2, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       Memory.store_half cpu.mem addr (regs.(rs2));
       store cpu addr (regs.(rs2) land 0xFFFF)
   | Sw (rs2, rs1, imm) ->
       let addr = u32 (regs.(rs1) + imm) in
       Memory.store_word cpu.mem addr (regs.(rs2));
       store cpu addr (regs.(rs2))
   | Addi (rd, rs1, imm) -> wr cpu rd (regs.(rs1) + imm)
   | Slti (rd, rs1, imm) -> wr cpu rd (if signed32 (regs.(rs1)) < imm then 1 else 0)
   | Sltiu (rd, rs1, imm) -> wr cpu rd (if regs.(rs1) < u32 imm then 1 else 0)
   | Xori (rd, rs1, imm) -> wr cpu rd (regs.(rs1) lxor u32 imm)
   | Ori (rd, rs1, imm) -> wr cpu rd (regs.(rs1) lor u32 imm)
   | Andi (rd, rs1, imm) -> wr cpu rd (regs.(rs1) land u32 imm)
   | Slli (rd, rs1, sh) -> wr cpu rd (regs.(rs1) lsl sh)
   | Srli (rd, rs1, sh) -> wr cpu rd (regs.(rs1) lsr sh)
   | Srai (rd, rs1, sh) -> wr cpu rd (signed32 (regs.(rs1)) asr sh)
   | Add (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) + regs.(rs2))
   | Sub (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) - regs.(rs2))
   | Sll (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) lsl (regs.(rs2) land 31))
   | Slt (rd, rs1, rs2) -> wr cpu rd (if signed32 (regs.(rs1)) < signed32 (regs.(rs2)) then 1 else 0)
   | Sltu (rd, rs1, rs2) -> wr cpu rd (if regs.(rs1) < regs.(rs2) then 1 else 0)
   | Xor (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) lxor regs.(rs2))
   | Srl (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) lsr (regs.(rs2) land 31))
   | Sra (rd, rs1, rs2) -> wr cpu rd (signed32 (regs.(rs1)) asr (regs.(rs2) land 31))
   | Or (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) lor regs.(rs2))
   | And (rd, rs1, rs2) -> wr cpu rd (regs.(rs1) land regs.(rs2))
   | Mul (rd, rs1, rs2) -> wr cpu rd (mul_lo (regs.(rs1)) (regs.(rs2)))
   | Mulh (rd, rs1, rs2) -> wr cpu rd (mulh_signed (regs.(rs1)) (regs.(rs2)))
   | Mulhsu (rd, rs1, rs2) -> wr cpu rd (mulhsu_32 (regs.(rs1)) (regs.(rs2)))
   | Mulhu (rd, rs1, rs2) -> wr cpu rd (mulhu_32 (regs.(rs1)) (regs.(rs2)))
   | Div (rd, rs1, rs2) -> wr cpu rd (div_signed (regs.(rs1)) (regs.(rs2)))
   | Divu (rd, rs1, rs2) -> wr cpu rd (div_unsigned (regs.(rs1)) (regs.(rs2)))
   | Rem (rd, rs1, rs2) -> wr cpu rd (rem_signed (regs.(rs1)) (regs.(rs2)))
   | Remu (rd, rs1, rs2) -> wr cpu rd (rem_unsigned (regs.(rs1)) (regs.(rs2)))
   | Ecall | Ebreak -> cpu.halt <- true);
  (* Operand values must be sampled before the register write lands:
     rd may alias rs1/rs2. *)
  let rs1_value = regs.(Inst.rs1 inst) and rs2_value = regs.(Inst.rs2 inst) in
  let rd = cpu.rd in
  let rd_old = regs.(rd) in
  if rd <> 0 then regs.(rd) <- cpu.value;
  let rd_new = regs.(rd) in
  (* only a branch not taken clears [taken] *)
  let klass = if cpu.taken then Inst.classify inst else Inst.K_branch_not_taken in
  let latency = cpu.cycle_model klass in
  let bus = cpu.mem_addr >= 0 in
  let event =
    {
      Trace.index = cpu.retired;
      cycle = cpu.cycle;
      cycles = latency;
      pc;
      inst;
      klass;
      rs1_value;
      rs2_value;
      rd_old;
      rd_new;
      mem_addr = (if bus then Some cpu.mem_addr else None);
      mem_value = (if bus then Some cpu.mem_value else None);
    }
  in
  cpu.pc <- cpu.next_pc;
  cpu.cycle <- cpu.cycle + latency;
  cpu.retired <- cpu.retired + 1;
  if cpu.halt then cpu.halted <- true;
  cpu.tracer event

let run ?(max_steps = 100_000_000) cpu =
  let steps = ref 0 in
  while (not cpu.halted) && !steps < max_steps do
    step cpu;
    incr steps
  done;
  if not cpu.halted then failwith "Cpu.run: max_steps exceeded";
  cpu.retired
