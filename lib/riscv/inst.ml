type reg = int

let x0 = 0
let ra = 1
let t i =
  if i < 0 || i > 6 then invalid_arg "Inst.t: t0..t6";
  if i < 3 then 5 + i else 28 + (i - 3)

let s i =
  if i < 0 || i > 11 then invalid_arg "Inst.s: s0..s11";
  if i < 2 then 8 + i else 18 + (i - 2)

let a i =
  if i < 0 || i > 7 then invalid_arg "Inst.a: a0..a7";
  10 + i

let reg_names =
  [|
    "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0"; "a1"; "a2"; "a3"; "a4"; "a5";
    "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7"; "s8"; "s9"; "s10"; "s11"; "t3"; "t4"; "t5"; "t6";
  |]

let reg_name r =
  if r < 0 || r > 31 then invalid_arg "Inst.reg_name";
  reg_names.(r)

type t =
  | Lui of reg * int
  | Auipc of reg * int
  | Jal of reg * int
  | Jalr of reg * reg * int
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Lb of reg * reg * int
  | Lh of reg * reg * int
  | Lw of reg * reg * int
  | Lbu of reg * reg * int
  | Lhu of reg * reg * int
  | Sb of reg * reg * int
  | Sh of reg * reg * int
  | Sw of reg * reg * int
  | Addi of reg * reg * int
  | Slti of reg * reg * int
  | Sltiu of reg * reg * int
  | Xori of reg * reg * int
  | Ori of reg * reg * int
  | Andi of reg * reg * int
  | Slli of reg * reg * int
  | Srli of reg * reg * int
  | Srai of reg * reg * int
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Sll of reg * reg * reg
  | Slt of reg * reg * reg
  | Sltu of reg * reg * reg
  | Xor of reg * reg * reg
  | Srl of reg * reg * reg
  | Sra of reg * reg * reg
  | Or of reg * reg * reg
  | And of reg * reg * reg
  | Mul of reg * reg * reg
  | Mulh of reg * reg * reg
  | Mulhsu of reg * reg * reg
  | Mulhu of reg * reg * reg
  | Div of reg * reg * reg
  | Divu of reg * reg * reg
  | Rem of reg * reg * reg
  | Remu of reg * reg * reg
  | Ecall
  | Ebreak

type klass =
  | K_arith
  | K_arith_imm
  | K_mul
  | K_div
  | K_load
  | K_store
  | K_branch_taken
  | K_branch_not_taken
  | K_jump
  | K_system

let is_branch = function
  | Beq _ | Bne _ | Blt _ | Bge _ | Bltu _ | Bgeu _ -> true
  | _ -> false

let classify ?(taken = true) inst =
  match inst with
  | Lui _ | Auipc _ -> K_arith_imm
  | Jal _ | Jalr _ -> K_jump
  | Beq _ | Bne _ | Blt _ | Bge _ | Bltu _ | Bgeu _ -> if taken then K_branch_taken else K_branch_not_taken
  | Lb _ | Lh _ | Lw _ | Lbu _ | Lhu _ -> K_load
  | Sb _ | Sh _ | Sw _ -> K_store
  | Addi _ | Slti _ | Sltiu _ | Xori _ | Ori _ | Andi _ | Slli _ | Srli _ | Srai _ -> K_arith_imm
  | Add _ | Sub _ | Sll _ | Slt _ | Sltu _ | Xor _ | Srl _ | Sra _ | Or _ | And _ -> K_arith
  | Mul _ | Mulh _ | Mulhsu _ | Mulhu _ -> K_mul
  | Div _ | Divu _ | Rem _ | Remu _ -> K_div
  | Ecall | Ebreak -> K_system

let pp fmt inst =
  let r = reg_name in
  let f = Format.fprintf in
  match inst with
  | Lui (rd, imm) -> f fmt "lui %s, 0x%x" (r rd) imm
  | Auipc (rd, imm) -> f fmt "auipc %s, 0x%x" (r rd) imm
  | Jal (rd, off) -> f fmt "jal %s, %d" (r rd) off
  | Jalr (rd, rs1, imm) -> f fmt "jalr %s, %s, %d" (r rd) (r rs1) imm
  | Beq (rs1, rs2, off) -> f fmt "beq %s, %s, %d" (r rs1) (r rs2) off
  | Bne (rs1, rs2, off) -> f fmt "bne %s, %s, %d" (r rs1) (r rs2) off
  | Blt (rs1, rs2, off) -> f fmt "blt %s, %s, %d" (r rs1) (r rs2) off
  | Bge (rs1, rs2, off) -> f fmt "bge %s, %s, %d" (r rs1) (r rs2) off
  | Bltu (rs1, rs2, off) -> f fmt "bltu %s, %s, %d" (r rs1) (r rs2) off
  | Bgeu (rs1, rs2, off) -> f fmt "bgeu %s, %s, %d" (r rs1) (r rs2) off
  | Lb (rd, rs1, imm) -> f fmt "lb %s, %d(%s)" (r rd) imm (r rs1)
  | Lh (rd, rs1, imm) -> f fmt "lh %s, %d(%s)" (r rd) imm (r rs1)
  | Lw (rd, rs1, imm) -> f fmt "lw %s, %d(%s)" (r rd) imm (r rs1)
  | Lbu (rd, rs1, imm) -> f fmt "lbu %s, %d(%s)" (r rd) imm (r rs1)
  | Lhu (rd, rs1, imm) -> f fmt "lhu %s, %d(%s)" (r rd) imm (r rs1)
  | Sb (rs2, rs1, imm) -> f fmt "sb %s, %d(%s)" (r rs2) imm (r rs1)
  | Sh (rs2, rs1, imm) -> f fmt "sh %s, %d(%s)" (r rs2) imm (r rs1)
  | Sw (rs2, rs1, imm) -> f fmt "sw %s, %d(%s)" (r rs2) imm (r rs1)
  | Addi (rd, rs1, imm) -> f fmt "addi %s, %s, %d" (r rd) (r rs1) imm
  | Slti (rd, rs1, imm) -> f fmt "slti %s, %s, %d" (r rd) (r rs1) imm
  | Sltiu (rd, rs1, imm) -> f fmt "sltiu %s, %s, %d" (r rd) (r rs1) imm
  | Xori (rd, rs1, imm) -> f fmt "xori %s, %s, %d" (r rd) (r rs1) imm
  | Ori (rd, rs1, imm) -> f fmt "ori %s, %s, %d" (r rd) (r rs1) imm
  | Andi (rd, rs1, imm) -> f fmt "andi %s, %s, %d" (r rd) (r rs1) imm
  | Slli (rd, rs1, imm) -> f fmt "slli %s, %s, %d" (r rd) (r rs1) imm
  | Srli (rd, rs1, imm) -> f fmt "srli %s, %s, %d" (r rd) (r rs1) imm
  | Srai (rd, rs1, imm) -> f fmt "srai %s, %s, %d" (r rd) (r rs1) imm
  | Add (rd, rs1, rs2) -> f fmt "add %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Sub (rd, rs1, rs2) -> f fmt "sub %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Sll (rd, rs1, rs2) -> f fmt "sll %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Slt (rd, rs1, rs2) -> f fmt "slt %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Sltu (rd, rs1, rs2) -> f fmt "sltu %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Xor (rd, rs1, rs2) -> f fmt "xor %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Srl (rd, rs1, rs2) -> f fmt "srl %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Sra (rd, rs1, rs2) -> f fmt "sra %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Or (rd, rs1, rs2) -> f fmt "or %s, %s, %s" (r rd) (r rs1) (r rs2)
  | And (rd, rs1, rs2) -> f fmt "and %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Mul (rd, rs1, rs2) -> f fmt "mul %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Mulh (rd, rs1, rs2) -> f fmt "mulh %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Mulhsu (rd, rs1, rs2) -> f fmt "mulhsu %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Mulhu (rd, rs1, rs2) -> f fmt "mulhu %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Div (rd, rs1, rs2) -> f fmt "div %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Divu (rd, rs1, rs2) -> f fmt "divu %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Rem (rd, rs1, rs2) -> f fmt "rem %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Remu (rd, rs1, rs2) -> f fmt "remu %s, %s, %s" (r rd) (r rs1) (r rs2)
  | Ecall -> f fmt "ecall"
  | Ebreak -> f fmt "ebreak"

let to_string inst = Format.asprintf "%a" pp inst
