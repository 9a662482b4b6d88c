(** Architectural execution events.

    The CPU emits one event per retired instruction; the power model
    consumes them.  An event carries everything a CMOS leakage model
    can see: the instruction word and class, source operand values,
    the destination's old and new value (Hamming-distance leakage of
    the register-file write port) and any memory-bus activity. *)

type event = {
  index : int;  (** retirement index, 0-based *)
  cycle : int;  (** cycle at which execution started *)
  cycles : int;  (** latency of this instruction *)
  pc : int;
  inst : Inst.t;
  klass : Inst.klass;  (** with branch direction resolved *)
  rs1_value : int;  (** 32-bit unsigned *)
  rs2_value : int;
  rd_old : int;  (** previous value of rd (0 when rd = x0 or none) *)
  rd_new : int;  (** value written (rd_old when no write) *)
  mem_addr : int option;
  mem_value : int option;  (** datum moved over the bus *)
}

type recorder = { mutable events : event list; mutable count : int }
(** Convenience sink accumulating events in reverse order. *)

val recorder : unit -> recorder
val record : recorder -> event -> unit
val events : recorder -> event array
(** Events in execution order. *)
