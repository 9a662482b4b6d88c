(** Leaklint: the constant-time verdict for sampler firmware.

    Glues the pieces together: {!Taint} produces per-instruction
    leakage facts, path-imbalance analysis over the {!Cfg} turns
    secret branches with unequal successor costs into
    [Secret_count] findings, and {!Oracle} adversarially confirms
    every finding against differential executions on {!Riscv.Cpu}.

    The expected verdict table (the paper's leakage taxonomy applied
    to the four firmware variants) is derived structurally from the
    decoded program — the ladder's [blt]s on the noise register, the
    residual sign negation of the CDT draw, the bus instructions that
    move noise — so [check] detects any drift between the analyzer,
    the firmware and the paper's claims. *)

val analyze_program : Riscv.Asm.program -> Finding.t list
(** Static findings only (all {!Finding.Static_only}), sorted by
    address.  The taint configuration is the sampler firmware's:
    secret sources are the noise, uniform and sign MMIO ports.  The
    rejection-count port is deliberately public — the polar burn loop
    replays a data-independent rejection count, and marking it secret
    would (correctly but uninterestingly) flag the whole burn loop.
    Region bases: scratch (0), moduli, permutation, CDT table,
    polynomial output, MMIO. *)

type report = {
  variant : Riscv.Sampler_prog.variant;
  program : Riscv.Asm.program;
  cfg : Cfg.t;
  findings : Finding.t list;
  confirmed : bool;  (** whether the differential oracle ran *)
}

val analyze_variant : ?n:int -> ?k:int -> ?confirm:bool -> Riscv.Sampler_prog.variant -> report
(** Build the firmware ([n] coefficients, [k] RNS planes, default
    1/1), lint it, and (with [confirm], the default) run the
    differential oracle with a staged wide modulus so that both words
    of every stored coefficient can witness. *)

val violations : report -> Finding.t list
(** Findings of {!Finding.Violation} severity — the constant-time
    verdict is clean iff this is empty. *)

val check : report -> string list
(** Drift between the analyzer's findings and the paper's verdict
    table for this firmware, as (kind, address) pairs derived from the
    decoded instruction stream (plus any expected finding left
    unconfirmed when the oracle ran).
    Empty means the verdict table holds. *)

val render : ?verbose:bool -> report -> string
(** Human-readable report; [verbose] appends the annotated listing. *)
