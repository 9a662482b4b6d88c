(** RV32IM interpreter modelled on the PicoRV32.

    Multi-cycle, in-order, no cache, no speculation — matching the
    PicoRV32 soft core the paper measures.  Per-instruction latencies
    follow the PicoRV32 documentation's typical figures so that the
    synthetic traces have realistic relative lengths (e.g. the
    division in the sampler's modular reduction dominates its window,
    producing the visible "peaks" used to segment traces). *)

type t

val create : ?tracer:(Trace.event -> unit) -> ?cycle_model:(Inst.klass -> int) -> Memory.t -> t
(** Fresh CPU with pc = 0 and all registers zero.  [cycle_model]
    overrides the PicoRV32 latency table — used by the timing-model
    robustness ablation. *)

val pc : t -> int
val set_pc : t -> int -> unit
val cycle : t -> int
val retired : t -> int
val halted : t -> bool
val reg : t -> Inst.reg -> int
(** Unsigned 32-bit register value. *)

val step : t -> unit
(** Execute one instruction.  [Ebreak]/[Ecall] set the halted flag.
    @raise Codec.Illegal on undecodable words. *)

val run : ?max_steps:int -> t -> int
(** Run until halt; returns retired instruction count.
    @raise Failure when [max_steps] (default 10^8) is exceeded —
    guards against runaway programs in tests. *)

val cycles_of_class : Inst.klass -> int
(** The latency table, exposed for the power model and tests. *)
