(** CMOS power leakage model.

    Maps one architectural event to the (noise-free) power it draws.
    The model is the standard one template attacks assume and the one
    the paper's measurements exhibit:

    - a base level per instruction class (control-flow variation —
      different instructions in the three branches — shows up here;
      this is the paper's first vulnerability);
    - a Hamming-weight term for values on the operand buses and the
      memory data bus (value-dependent leakage of [noise] — the second
      vulnerability);
    - a Hamming-distance term for the register-file write port
      (old XOR new destination value — what makes the negation
      [noise = -noise] leak, the third vulnerability). *)

type t = {
  base : Riscv.Inst.klass -> float;  (** class base power, arbitrary units *)
  hw_weight : float;  (** per set bit of rs1/rs2/result *)
  hd_weight : float;  (** per toggled bit of the rd write *)
  bus_weight : float;  (** per set bit on the memory data bus *)
}

val default : t
(** Weights chosen so data terms are ~10-20 % of class differences,
    matching the relative magnitudes visible in the paper's Fig. 3. *)

val hw_only : t
(** Ablation: Hamming weight alone (no HD term). *)

val hd_only : t
val hamming_weight : int -> int
(** Population count of the low 32 bits. *)

val hamming_distance : int -> int -> int
val write : t -> Riscv.Trace.event -> first:float array -> rest:float array -> int -> unit
(** [write m e ~first ~rest k] sets [first.(k)] to the noise-free
    power of the instruction's first, data-carrying cycle and
    [rest.(k)] to the power drawn during its remaining cycles (base
    component only).  The levels go straight into the caller's float
    arrays, so none is boxed. *)
