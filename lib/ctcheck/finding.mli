(** Typed leakage findings of the constant-time analyzer.

    Every finding anchors at the byte address of one instruction of the
    analyzed program and carries the four-way classification the paper's
    leakage taxonomy suggests: secret-dependent control flow, secret-
    dependent addressing, secret-dependent instruction counts / latency,
    and secret data moved over the memory bus.  The first three break
    the constant-time contract outright; the fourth is a leak surface a
    power adversary templates (it is exactly what RevEAL's single-trace
    attack consumes) but does not by itself make execution time or
    addresses secret-dependent, so it is reported at a lower severity. *)

type kind =
  | Secret_branch  (** branch condition depends on a secret *)
  | Secret_mem_addr  (** load/store address depends on a secret *)
  | Secret_count
      (** retired-instruction count or cycle count depends on a secret:
          unbalanced successor paths of a secret branch *)
  | Secret_bus  (** a secret datum crosses the memory bus *)

type severity = Violation | Leak_surface

val severity : kind -> severity
(** [Secret_bus] is {!Leak_surface}; everything else {!Violation}. *)

type witness = {
  secret_lo : int;  (** first secret of the distinguishing pair *)
  secret_hi : int;
  evidence : string  (** human-readable signature difference *)
}
(** A secret pair whose executions produced observably different
    signatures at the finding's address. *)

type confirmation =
  | Static_only  (** no differential witness found (or oracle not run) *)
  | Confirmed of witness

type t = {
  kind : kind;
  addr : int;  (** byte address of the anchoring instruction *)
  inst : Riscv.Inst.t;
  detail : string;
  confirmation : confirmation;
}

val is_violation : t -> bool
val is_confirmed : t -> bool
val kind_name : kind -> string
val severity_name : severity -> string
val compare : t -> t -> int
(** Orders by address, then kind — the report order. *)

val to_row : t -> Render.row
(** The shared report row: [loc] is the hex instruction address, [tag]
    the confirmation status, [detail] the instruction plus any note.
    Both the text listing and the [--json] finding objects of
    [reveal lint] render through this (see {!Render}), so the firmware
    linter and the source linter emit the same schema. *)

val to_string : t -> string
(** [Render.line (to_row f)]: address, kind, severity, confirmation
    tag, instruction and detail. *)
