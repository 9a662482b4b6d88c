type t = {
  mem : Memory.t;
  regs : int array;  (** unsigned 32-bit values *)
  mutable pc : int;
  mutable cycle : int;
  mutable retired : int;
  mutable halted : bool;
  tracer : Trace.event -> unit;
  cycle_model : Inst.klass -> int;
  decode_cache : (int32, Inst.t) Hashtbl.t;
      (** decode is pure; memoising it models the simple fetch path
          without paying the decoder on every step *)
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
    decode_cache = Hashtbl.create 512;
  }

let pc cpu = cpu.pc
let set_pc cpu v = cpu.pc <- u32 v
let cycle cpu = cpu.cycle
let retired cpu = cpu.retired
let halted cpu = cpu.halted
let reg cpu r = cpu.regs.(r)

let set_reg cpu r v = if r <> 0 then cpu.regs.(r) <- u32 v

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

type effect = {
  rd : Inst.reg option;
  value : int;
  next_pc : int;
  taken : bool;
  mem_addr : int option;
  mem_value : int option;
  halt : bool;
}

let step cpu =
  if cpu.halted then invalid_arg "Cpu.step: already halted";
  let pc = cpu.pc in
  let word = Memory.load_word cpu.mem pc in
  let inst =
    match Hashtbl.find_opt cpu.decode_cache word with
    | Some i -> i
    | None ->
        let i = Codec.decode word in
        Hashtbl.add cpu.decode_cache word i;
        i
  in
  let r i = cpu.regs.(i) in
  let no_effect = { rd = None; value = 0; next_pc = u32 (pc + 4); taken = true; mem_addr = None; mem_value = None; halt = false } in
  let wr rd value = { no_effect with rd = Some rd; value = u32 value } in
  let branch cond off = if cond then { no_effect with next_pc = u32 (pc + off) } else { no_effect with taken = false } in
  let load rd addr value = { no_effect with rd = Some rd; value = u32 value; mem_addr = Some addr; mem_value = Some (u32 value) } in
  let eff =
    let open Inst in
    match inst with
    | Lui (rd, imm) -> wr rd (imm lsl 12)
    | Auipc (rd, imm) -> wr rd (pc + (imm lsl 12))
    | Jal (rd, off) -> { (wr rd (pc + 4)) with next_pc = u32 (pc + off) }
    | Jalr (rd, rs1, imm) -> { (wr rd (pc + 4)) with next_pc = u32 (r rs1 + imm) land lnot 1 }
    | Beq (rs1, rs2, off) -> branch (r rs1 = r rs2) off
    | Bne (rs1, rs2, off) -> branch (r rs1 <> r rs2) off
    | Blt (rs1, rs2, off) -> branch (signed32 (r rs1) < signed32 (r rs2)) off
    | Bge (rs1, rs2, off) -> branch (signed32 (r rs1) >= signed32 (r rs2)) off
    | Bltu (rs1, rs2, off) -> branch (r rs1 < r rs2) off
    | Bgeu (rs1, rs2, off) -> branch (r rs1 >= r rs2) off
    | Lb (rd, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        load rd addr (Memory.load_byte cpu.mem addr)
    | Lh (rd, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        load rd addr (Memory.load_half cpu.mem addr)
    | Lw (rd, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        load rd addr (Int32.to_int (Memory.load_word cpu.mem addr))
    | Lbu (rd, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        load rd addr (Memory.load_byte_u cpu.mem addr)
    | Lhu (rd, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        load rd addr (Memory.load_half_u cpu.mem addr)
    | Sb (rs2, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        Memory.store_byte cpu.mem addr (r rs2);
        { no_effect with mem_addr = Some addr; mem_value = Some (r rs2 land 0xFF) }
    | Sh (rs2, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        Memory.store_half cpu.mem addr (r rs2);
        { no_effect with mem_addr = Some addr; mem_value = Some (r rs2 land 0xFFFF) }
    | Sw (rs2, rs1, imm) ->
        let addr = u32 (r rs1 + imm) in
        Memory.store_word cpu.mem addr (Int32.of_int (r rs2));
        { no_effect with mem_addr = Some addr; mem_value = Some (r rs2) }
    | Addi (rd, rs1, imm) -> wr rd (r rs1 + imm)
    | Slti (rd, rs1, imm) -> wr rd (if signed32 (r rs1) < imm then 1 else 0)
    | Sltiu (rd, rs1, imm) -> wr rd (if r rs1 < u32 imm then 1 else 0)
    | Xori (rd, rs1, imm) -> wr rd (r rs1 lxor u32 imm)
    | Ori (rd, rs1, imm) -> wr rd (r rs1 lor u32 imm)
    | Andi (rd, rs1, imm) -> wr rd (r rs1 land u32 imm)
    | Slli (rd, rs1, sh) -> wr rd (r rs1 lsl sh)
    | Srli (rd, rs1, sh) -> wr rd (r rs1 lsr sh)
    | Srai (rd, rs1, sh) -> wr rd (signed32 (r rs1) asr sh)
    | Add (rd, rs1, rs2) -> wr rd (r rs1 + r rs2)
    | Sub (rd, rs1, rs2) -> wr rd (r rs1 - r rs2)
    | Sll (rd, rs1, rs2) -> wr rd (r rs1 lsl (r rs2 land 31))
    | Slt (rd, rs1, rs2) -> wr rd (if signed32 (r rs1) < signed32 (r rs2) then 1 else 0)
    | Sltu (rd, rs1, rs2) -> wr rd (if r rs1 < r rs2 then 1 else 0)
    | Xor (rd, rs1, rs2) -> wr rd (r rs1 lxor r rs2)
    | Srl (rd, rs1, rs2) -> wr rd (r rs1 lsr (r rs2 land 31))
    | Sra (rd, rs1, rs2) -> wr rd (signed32 (r rs1) asr (r rs2 land 31))
    | Or (rd, rs1, rs2) -> wr rd (r rs1 lor r rs2)
    | And (rd, rs1, rs2) -> wr rd (r rs1 land r rs2)
    | Mul (rd, rs1, rs2) -> wr rd (mul_lo (r rs1) (r rs2))
    | Mulh (rd, rs1, rs2) -> wr rd (mulh_signed (r rs1) (r rs2))
    | Mulhsu (rd, rs1, rs2) -> wr rd (mulhsu_32 (r rs1) (r rs2))
    | Mulhu (rd, rs1, rs2) -> wr rd (mulhu_32 (r rs1) (r rs2))
    | Div (rd, rs1, rs2) -> wr rd (div_signed (r rs1) (r rs2))
    | Divu (rd, rs1, rs2) -> wr rd (div_unsigned (r rs1) (r rs2))
    | Rem (rd, rs1, rs2) -> wr rd (rem_signed (r rs1) (r rs2))
    | Remu (rd, rs1, rs2) -> wr rd (rem_unsigned (r rs1) (r rs2))
    | Ecall | Ebreak -> { no_effect with halt = true }
  in
  (* Operand values must be sampled before the register write lands:
     rd may alias rs1/rs2. *)
  let rs1_value = r (Inst.rs1 inst) and rs2_value = r (Inst.rs2 inst) in
  let rd_old = match eff.rd with Some rd when rd <> 0 -> cpu.regs.(rd) | _ -> 0 in
  (match eff.rd with Some rd -> set_reg cpu rd eff.value | None -> ());
  let rd_new = match eff.rd with Some rd when rd <> 0 -> cpu.regs.(rd) | _ -> rd_old in
  let klass = Inst.classify ~taken:eff.taken inst in
  let latency = cpu.cycle_model klass in
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
      mem_addr = eff.mem_addr;
      mem_value = eff.mem_value;
    }
  in
  cpu.pc <- eff.next_pc;
  cpu.cycle <- cpu.cycle + latency;
  cpu.retired <- cpu.retired + 1;
  if eff.halt then cpu.halted <- true;
  cpu.tracer event

let run ?(max_steps = 100_000_000) cpu =
  let steps = ref 0 in
  while (not cpu.halted) && !steps < max_steps do
    step cpu;
    incr steps
  done;
  if not cpu.halted then failwith "Cpu.run: max_steps exceeded";
  cpu.retired
