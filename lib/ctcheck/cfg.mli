(** Control-flow graph recovery for assembled RV32IM programs.

    The graph is rebuilt from the encoded words alone (no label or
    listing information), so the analyzer sees exactly what the device
    fetches.  Exploration starts at address 0, where the device loads
    the program, and follows direct branches, [jal] calls (the
    fall-through address becomes a call-return site) and
    [jalr x0, ra, 0] returns (resolved context-insensitively to every
    discovered call-return site).  Any
    other [jalr] is an indirect jump: it is conservatively assumed to
    target any label of the program plus any already-discovered block
    leader.  Words never reached this way — data, padding after a halt
    — are not decoded at all, so embedded data cannot crash the
    analyzer.  An illegal word that {e is} reachable terminates its
    block like a fetch fault (treated as {!Halt}). *)

type terminator =
  | Fallthrough  (** next block starts at the following address *)
  | Branch of { taken : int; not_taken : int }
  | Jump of int  (** jal x0 *)
  | Call of { target : int; return : int }  (** jal rd<>x0 *)
  | Return  (** jalr x0, ra, 0 *)
  | Indirect  (** any other jalr *)
  | Halt  (** ebreak / ecall, or a reachable illegal word *)

type block = {
  start : int;
  insts : (int * Riscv.Inst.t) array;  (** (address, instruction), in order *)
  term : terminator;
  succs : int list;  (** successor block starts, deduplicated *)
}

type t

val build : Riscv.Asm.program -> t
val entry : t -> int
val blocks : t -> block list
(** Reachable blocks in ascending address order. *)

val block : t -> int -> block
(** @raise Not_found when the address is not a reachable block start. *)

val back_edges : t -> (int * int) list
(** [(src, dst)] block-start pairs closing a loop (DFS back edges). *)

val call_returns : t -> int list
val has_indirect : t -> bool
