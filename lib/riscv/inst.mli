(** RV32IM instruction set.

    The attacked device in the paper is a PicoRV32 soft core in the
    RV32IM configuration (32-bit integers, hardware multiply/divide).
    This module defines the instruction syntax; {!Codec} maps it to and
    from the binary encoding, {!Cpu} executes it. *)

type reg = int
(** Register index 0..31; x0 is hardwired to zero. *)

val x0 : reg
val ra : reg
val t : int -> reg
(** Temporaries t0..t6. *)

val s : int -> reg
(** Saved s0..s11. *)

val a : int -> reg
(** Arguments a0..a7. *)

type t =
  | Lui of reg * int
  | Auipc of reg * int
  | Jal of reg * int  (** rd, byte offset *)
  | Jalr of reg * reg * int
  | Beq of reg * reg * int
  | Bne of reg * reg * int
  | Blt of reg * reg * int
  | Bge of reg * reg * int
  | Bltu of reg * reg * int
  | Bgeu of reg * reg * int
  | Lb of reg * reg * int  (** rd, rs1, imm *)
  | Lh of reg * reg * int
  | Lw of reg * reg * int
  | Lbu of reg * reg * int
  | Lhu of reg * reg * int
  | Sb of reg * reg * int  (** rs2, rs1, imm : mem[rs1+imm] <- rs2 *)
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
  | Add of reg * reg * reg  (** rd, rs1, rs2 *)
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
  | K_arith  (** register-register ALU *)
  | K_arith_imm
  | K_mul
  | K_div
  | K_load
  | K_store
  | K_branch_taken
  | K_branch_not_taken
  | K_jump
  | K_system
(** Instruction classes: the granularity at which the power model
    assigns base consumption and the PicoRV32 cycle model assigns
    latency.  Branches are split by direction because taken and
    not-taken branches cost different cycles (and power) on PicoRV32. *)

val classify : ?taken:bool -> t -> klass
(** [taken] matters only for branches (default: taken). *)

val is_branch : t -> bool
val to_string : t -> string
