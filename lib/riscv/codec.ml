exception Illegal of int32

(* All assembly happens in native ints (words are 32-bit, so they fit
   comfortably); the final result is truncated to an int32. *)

let check_reg r = if r < 0 || r > 31 then invalid_arg "Codec: register out of range"

let check_imm name bits signed v =
  let lo, hi = if signed then (-(1 lsl (bits - 1)), (1 lsl (bits - 1)) - 1) else (0, (1 lsl bits) - 1) in
  if v < lo || v > hi then invalid_arg (Printf.sprintf "Codec: %s immediate %d out of %d-bit range" name v bits)

let mask bits v = v land ((1 lsl bits) - 1)

let r_type ~funct7 ~funct3 ~opcode rd rs1 rs2 =
  check_reg rd;
  check_reg rs1;
  check_reg rs2;
  (funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let i_type ~funct3 ~opcode rd rs1 imm =
  check_reg rd;
  check_reg rs1;
  check_imm "I" 12 true imm;
  (mask 12 imm lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let shift_type ~funct7 ~funct3 ~opcode rd rs1 shamt =
  check_reg rd;
  check_reg rs1;
  if shamt < 0 || shamt > 31 then invalid_arg "Codec: shift amount out of range";
  (funct7 lsl 25) lor (shamt lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let s_type ~funct3 ~opcode rs2 rs1 imm =
  check_reg rs1;
  check_reg rs2;
  check_imm "S" 12 true imm;
  let imm = mask 12 imm in
  ((imm lsr 5) lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor ((imm land 0x1F) lsl 7) lor opcode

let b_type ~funct3 ~opcode rs1 rs2 off =
  check_reg rs1;
  check_reg rs2;
  check_imm "B" 13 true off;
  if off land 1 <> 0 then invalid_arg "Codec: branch offset must be even";
  let imm = mask 13 off in
  let b12 = (imm lsr 12) land 1 and b11 = (imm lsr 11) land 1 in
  let b10_5 = (imm lsr 5) land 0x3F and b4_1 = (imm lsr 1) land 0xF in
  (b12 lsl 31) lor (b10_5 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12) lor (b4_1 lsl 8)
  lor (b11 lsl 7) lor opcode

let u_type ~opcode rd imm =
  check_reg rd;
  check_imm "U" 20 false imm;
  (imm lsl 12) lor (rd lsl 7) lor opcode

let j_type ~opcode rd off =
  check_reg rd;
  check_imm "J" 21 true off;
  if off land 1 <> 0 then invalid_arg "Codec: jump offset must be even";
  let imm = mask 21 off in
  let b20 = (imm lsr 20) land 1 and b19_12 = (imm lsr 12) land 0xFF in
  let b11 = (imm lsr 11) land 1 and b10_1 = (imm lsr 1) land 0x3FF in
  (b20 lsl 31) lor (b10_1 lsl 21) lor (b11 lsl 20) lor (b19_12 lsl 12) lor (rd lsl 7) lor opcode

let op = 0x33
let op_imm = 0x13
let load = 0x03
let store = 0x23
let branch = 0x63
let lui_op = 0x37
let auipc_op = 0x17
let jal_op = 0x6F
let jalr_op = 0x67
let system = 0x73

let encode inst =
  let open Inst in
  let word =
    match inst with
    | Lui (rd, imm) -> u_type ~opcode:lui_op rd imm
    | Auipc (rd, imm) -> u_type ~opcode:auipc_op rd imm
    | Jal (rd, off) -> j_type ~opcode:jal_op rd off
    | Jalr (rd, rs1, imm) -> i_type ~funct3:0 ~opcode:jalr_op rd rs1 imm
    | Beq (rs1, rs2, off) -> b_type ~funct3:0 ~opcode:branch rs1 rs2 off
    | Bne (rs1, rs2, off) -> b_type ~funct3:1 ~opcode:branch rs1 rs2 off
    | Blt (rs1, rs2, off) -> b_type ~funct3:4 ~opcode:branch rs1 rs2 off
    | Bge (rs1, rs2, off) -> b_type ~funct3:5 ~opcode:branch rs1 rs2 off
    | Bltu (rs1, rs2, off) -> b_type ~funct3:6 ~opcode:branch rs1 rs2 off
    | Bgeu (rs1, rs2, off) -> b_type ~funct3:7 ~opcode:branch rs1 rs2 off
    | Lb (rd, rs1, imm) -> i_type ~funct3:0 ~opcode:load rd rs1 imm
    | Lh (rd, rs1, imm) -> i_type ~funct3:1 ~opcode:load rd rs1 imm
    | Lw (rd, rs1, imm) -> i_type ~funct3:2 ~opcode:load rd rs1 imm
    | Lbu (rd, rs1, imm) -> i_type ~funct3:4 ~opcode:load rd rs1 imm
    | Lhu (rd, rs1, imm) -> i_type ~funct3:5 ~opcode:load rd rs1 imm
    | Sb (rs2, rs1, imm) -> s_type ~funct3:0 ~opcode:store rs2 rs1 imm
    | Sh (rs2, rs1, imm) -> s_type ~funct3:1 ~opcode:store rs2 rs1 imm
    | Sw (rs2, rs1, imm) -> s_type ~funct3:2 ~opcode:store rs2 rs1 imm
    | Addi (rd, rs1, imm) -> i_type ~funct3:0 ~opcode:op_imm rd rs1 imm
    | Slti (rd, rs1, imm) -> i_type ~funct3:2 ~opcode:op_imm rd rs1 imm
    | Sltiu (rd, rs1, imm) -> i_type ~funct3:3 ~opcode:op_imm rd rs1 imm
    | Xori (rd, rs1, imm) -> i_type ~funct3:4 ~opcode:op_imm rd rs1 imm
    | Ori (rd, rs1, imm) -> i_type ~funct3:6 ~opcode:op_imm rd rs1 imm
    | Andi (rd, rs1, imm) -> i_type ~funct3:7 ~opcode:op_imm rd rs1 imm
    | Slli (rd, rs1, sh) -> shift_type ~funct7:0x00 ~funct3:1 ~opcode:op_imm rd rs1 sh
    | Srli (rd, rs1, sh) -> shift_type ~funct7:0x00 ~funct3:5 ~opcode:op_imm rd rs1 sh
    | Srai (rd, rs1, sh) -> shift_type ~funct7:0x20 ~funct3:5 ~opcode:op_imm rd rs1 sh
    | Add (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:0 ~opcode:op rd rs1 rs2
    | Sub (rd, rs1, rs2) -> r_type ~funct7:0x20 ~funct3:0 ~opcode:op rd rs1 rs2
    | Sll (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:1 ~opcode:op rd rs1 rs2
    | Slt (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:2 ~opcode:op rd rs1 rs2
    | Sltu (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:3 ~opcode:op rd rs1 rs2
    | Xor (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:4 ~opcode:op rd rs1 rs2
    | Srl (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:5 ~opcode:op rd rs1 rs2
    | Sra (rd, rs1, rs2) -> r_type ~funct7:0x20 ~funct3:5 ~opcode:op rd rs1 rs2
    | Or (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:6 ~opcode:op rd rs1 rs2
    | And (rd, rs1, rs2) -> r_type ~funct7:0x00 ~funct3:7 ~opcode:op rd rs1 rs2
    | Mul (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:0 ~opcode:op rd rs1 rs2
    | Mulh (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:1 ~opcode:op rd rs1 rs2
    | Mulhsu (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:2 ~opcode:op rd rs1 rs2
    | Mulhu (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:3 ~opcode:op rd rs1 rs2
    | Div (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:4 ~opcode:op rd rs1 rs2
    | Divu (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:5 ~opcode:op rd rs1 rs2
    | Rem (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:6 ~opcode:op rd rs1 rs2
    | Remu (rd, rs1, rs2) -> r_type ~funct7:0x01 ~funct3:7 ~opcode:op rd rs1 rs2
    | Ecall -> system
    | Ebreak -> (1 lsl 20) lor system
  in
  Int32.of_int word

let sign_extend bits v =
  (* OCaml native ints are 63-bit: shift against the full word width. *)
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let decode word =
  (* opened first, so the field values [rs1]/[rs2] below shadow the
     decoders [Inst.rs1]/[Inst.rs2] *)
  let open Inst in
  let w = Int32.to_int word land 0xFFFFFFFF in
  let opcode = w land 0x7F in
  let rd = (w lsr 7) land 0x1F in
  let funct3 = (w lsr 12) land 0x7 in
  let rs1 = (w lsr 15) land 0x1F in
  let rs2 = (w lsr 20) land 0x1F in
  let funct7 = (w lsr 25) land 0x7F in
  let i_imm = sign_extend 12 (w lsr 20) in
  let s_imm = sign_extend 12 (((w lsr 25) lsl 5) lor ((w lsr 7) land 0x1F)) in
  let b_imm =
    sign_extend 13
      ((((w lsr 31) land 1) lsl 12)
      lor (((w lsr 7) land 1) lsl 11)
      lor (((w lsr 25) land 0x3F) lsl 5)
      lor (((w lsr 8) land 0xF) lsl 1))
  in
  let u_imm = (w lsr 12) land 0xFFFFF in
  let j_imm =
    sign_extend 21
      ((((w lsr 31) land 1) lsl 20)
      lor (((w lsr 12) land 0xFF) lsl 12)
      lor (((w lsr 20) land 1) lsl 11)
      lor (((w lsr 21) land 0x3FF) lsl 1))
  in
  let illegal () = raise (Illegal word) in
  match opcode with
  | 0x37 -> Lui (rd, u_imm)
  | 0x17 -> Auipc (rd, u_imm)
  | 0x6F -> Jal (rd, j_imm)
  | 0x67 -> if funct3 = 0 then Jalr (rd, rs1, i_imm) else illegal ()
  | 0x63 -> (
      match funct3 with
      | 0 -> Beq (rs1, rs2, b_imm)
      | 1 -> Bne (rs1, rs2, b_imm)
      | 4 -> Blt (rs1, rs2, b_imm)
      | 5 -> Bge (rs1, rs2, b_imm)
      | 6 -> Bltu (rs1, rs2, b_imm)
      | 7 -> Bgeu (rs1, rs2, b_imm)
      | _ -> illegal ())
  | 0x03 -> (
      match funct3 with
      | 0 -> Lb (rd, rs1, i_imm)
      | 1 -> Lh (rd, rs1, i_imm)
      | 2 -> Lw (rd, rs1, i_imm)
      | 4 -> Lbu (rd, rs1, i_imm)
      | 5 -> Lhu (rd, rs1, i_imm)
      | _ -> illegal ())
  | 0x23 -> (
      match funct3 with
      | 0 -> Sb (rs2, rs1, s_imm)
      | 1 -> Sh (rs2, rs1, s_imm)
      | 2 -> Sw (rs2, rs1, s_imm)
      | _ -> illegal ())
  | 0x13 -> (
      match funct3 with
      | 0 -> Addi (rd, rs1, i_imm)
      | 2 -> Slti (rd, rs1, i_imm)
      | 3 -> Sltiu (rd, rs1, i_imm)
      | 4 -> Xori (rd, rs1, i_imm)
      | 6 -> Ori (rd, rs1, i_imm)
      | 7 -> Andi (rd, rs1, i_imm)
      | 1 -> if funct7 = 0 then Slli (rd, rs1, rs2) else illegal ()
      | 5 -> if funct7 = 0 then Srli (rd, rs1, rs2) else if funct7 = 0x20 then Srai (rd, rs1, rs2) else illegal ()
      | _ -> illegal ())
  | 0x33 -> (
      match (funct7, funct3) with
      | 0x00, 0 -> Add (rd, rs1, rs2)
      | 0x20, 0 -> Sub (rd, rs1, rs2)
      | 0x00, 1 -> Sll (rd, rs1, rs2)
      | 0x00, 2 -> Slt (rd, rs1, rs2)
      | 0x00, 3 -> Sltu (rd, rs1, rs2)
      | 0x00, 4 -> Xor (rd, rs1, rs2)
      | 0x00, 5 -> Srl (rd, rs1, rs2)
      | 0x20, 5 -> Sra (rd, rs1, rs2)
      | 0x00, 6 -> Or (rd, rs1, rs2)
      | 0x00, 7 -> And (rd, rs1, rs2)
      | 0x01, 0 -> Mul (rd, rs1, rs2)
      | 0x01, 1 -> Mulh (rd, rs1, rs2)
      | 0x01, 2 -> Mulhsu (rd, rs1, rs2)
      | 0x01, 3 -> Mulhu (rd, rs1, rs2)
      | 0x01, 4 -> Div (rd, rs1, rs2)
      | 0x01, 5 -> Divu (rd, rs1, rs2)
      | 0x01, 6 -> Rem (rd, rs1, rs2)
      | 0x01, 7 -> Remu (rd, rs1, rs2)
      | _ -> illegal ())
  | 0x73 -> if w = 0x73 then Ecall else if w = 0x00100073 then Ebreak else illegal ()
  | _ -> illegal ()
