(** Two-pass assembler with symbolic labels.

    Programs are described as a list of {!item}s; [assemble] resolves
    labels in a first pass (every item has a size that does not depend
    on label addresses) and emits encoded words in a second.  Pseudo
    instructions ([li], [la], [j], [call], ...) expand exactly as the
    GNU assembler expands them, so the instruction stream — and hence
    the power trace — matches what a real toolchain would produce. *)

type item

val label : string -> item
val ins : Inst.t -> item
(** A concrete instruction with numeric offsets. *)

val comment : string -> item
(** No-op marker kept for listings. *)

(* Label-relative control flow. *)

val beq : Inst.reg -> Inst.reg -> string -> item
val bne : Inst.reg -> Inst.reg -> string -> item
val blt : Inst.reg -> Inst.reg -> string -> item
val bge : Inst.reg -> Inst.reg -> string -> item
val j : string -> item
val jal : Inst.reg -> string -> item
val call : string -> item  (** jal ra, label *)

(* Pseudo instructions. *)

val li : Inst.reg -> int -> item
(** Load a 32-bit constant (addi, or lui+addi when it does not fit). *)

val la : Inst.reg -> string -> item
(** Load a label's absolute address. *)

val mv : Inst.reg -> Inst.reg -> item
val nop : item
val ret : item
val halt : item  (** ebreak *)

type program = {
  words : int32 array;  (** encoded instructions *)
  labels : (string * int) list;  (** label -> byte address *)
  listing : string list;  (** disassembly with addresses *)
  origin : int;  (** byte address of [words.(0)] *)
}

type error =
  | Duplicate_label of string
  | Undefined_label of string
  | Branch_out_of_range of { label : string; distance : int; at : int }
      (** a label-relative branch/jump at byte address [at] cannot
          encode the [distance] (bytes) to [label] *)

exception Error of error

val assemble : ?origin:int -> item list -> program
(** @raise Error on duplicate or undefined labels and on
    label-relative offsets that do not fit their encoding.
    @raise Invalid_argument on out-of-range numeric immediates in
    concrete instructions. *)

val label_address : program -> string -> int
(** @raise Not_found for unknown labels. *)
