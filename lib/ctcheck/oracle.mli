(** Differential-trace confirmation of static findings.

    Every static finding is adversarially checked against the dynamic
    truth: the program is executed on {!Riscv.Cpu} for pairs of secret
    inputs and a per-kind signature is extracted at the finding's
    address from the event stream.  If any pair produces different
    signatures the finding is {!Finding.Confirmed} with that pair as
    witness; otherwise it stays {!Finding.Static_only} — a
    conservative over-approximation of the analyzer (e.g. a value that
    is tainted on paper but masked to a constant before use).

    Signatures per kind:
    - [Secret_branch]: the taken/not-taken pattern of the branch;
    - [Secret_mem_addr]: the bus-address sequence of the instruction;
    - [Secret_bus]: the bus-datum sequence;
    - [Secret_count]: execution count at the address plus the global
      retired-instruction and cycle counts. *)

type signature =
  | Branches of bool list  (** taken? per dynamic execution of the anchor *)
  | Addresses of int list
  | Bus_values of int list
  | Counts of { hits : int; retired : int; cycles : int }

val confirm : run:(secret:int -> Riscv.Trace.event array) -> Finding.t -> Finding.t
(** Re-tags the finding, trying the secret pairs [(3, -3); (1, 2);
    (0, 1)] — sign, magnitude and zero/non-zero distinguishers, all
    within every sampler variant's range.  [run] executes the program
    under one secret and returns its event stream; memoize it when
    confirming many findings. *)

val confirm_all : run:(secret:int -> Riscv.Trace.event array) -> Finding.t list -> Finding.t list
(** {!confirm} for every finding, with [run] memoized across the
    list. *)
