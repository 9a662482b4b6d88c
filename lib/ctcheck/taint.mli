(** Secret-taint dataflow over a recovered {!Cfg}.

    Abstract values track one bit of secrecy plus a small address
    abstraction used to keep pointer arithmetic from drowning the
    analysis in false aliases:

    - [Const a] — the register provably holds the 32-bit constant [a]
      (tracked through [lui]/[auipc]/[addi]/[add]/[sub]/[slli], the
      operations address computation is made of);
    - [Region r] — the register points somewhere inside the declared
      data region based at [r] (the largest declared base [<=] the
      address); loop-variant pointers land here after one join;
    - [Any] — no information.

    The memory abstraction is region-granular: a store joins its value
    into the target region, a load reads the region's accumulated
    value.  Memory never written by the program reads back public —
    host-staged tables (moduli, CDT thresholds, permutations) are
    public inputs.  Stores through unresolvable addresses land in an
    escape cell that every subsequent load also observes, so aliasing
    is handled conservatively.  MMIO loads at a resolvable constant
    address consult the configuration's secret-port predicate; an MMIO
    load through an unresolved pointer into the MMIO region is
    conservatively secret.

    The whole domain is a finite lattice ([Const -> Region -> Any]
    along declared regions, secrecy monotone), so the worklist
    iteration terminates. *)

type base = Const of int | Region of int | Any
type value = { base : base; secret : bool }

type config = {
  secret_mmio : int -> bool;  (** is this MMIO address a secret source? *)
  region_bases : int list;  (** declared data-region base addresses *)
}

val config : secret_mmio:(int -> bool) -> region_bases:int list -> config
(** Sorts and deduplicates the region bases and always includes 0 and
    {!Riscv.Memory.mmio_base}. *)

type fact = {
  addr : int;
  inst : Riscv.Inst.t;
  secret_branch : bool;  (** branch condition tainted *)
  secret_addr : bool;  (** memory address tainted *)
  secret_bus : bool;  (** datum on the bus tainted *)
}

type result = { cfg : Cfg.t; facts : fact list }

val analyze : config -> Riscv.Asm.program -> result
(** Fixed point over the recovered CFG; [facts] cover every reachable
    instruction in ascending address order. *)
