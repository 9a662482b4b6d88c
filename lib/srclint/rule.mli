(** The five srclint rule classes.

    Each rule protects one leg of the repo's determinism contract
    (bit-identical sharded merges, byte-identical fuzz batches,
    reproducible obs traces — see DESIGN.md §15):

    - {!Nondet_source}: [Random.self_init] and global-state
      [Random.*], [Unix.gettimeofday], [Unix.time], [Sys.time] and
      [Domain.self] values anywhere except sanctioned, allowlisted
      wall-clock sites (the [Obs.Clock] Wall clock, worker
      deadlines).
    - {!Hashtbl_order}: [Hashtbl.fold] / [Hashtbl.iter] /
      [Hashtbl.to_seq*] results that are not visibly sorted at the
      call site — conservatively assumed to reach emitted output in
      nondeterministic hash order.
    - {!Domain_capture}: [ref]s, mutable record fields, [Hashtbl]s
      and [Buffer]s mutated inside a [Domain.spawn] closure that
      never mentions [Mutex] / [Atomic].
    - {!Exn_message}: pattern matches or comparisons on exception
      {e message strings} rather than exception families —
      [Triage.Signature] already learned this lesson the hard way.
    - {!Unsafe_index}: [*.unsafe_get] / [*.unsafe_set] anywhere —
      bounds-unchecked access is sanctioned only in the audited
      {!Mathkit.Fvec} kernel loops (which validate bounds up front),
      each site carrying its own allow with a written reason.

    Suppression is per-site via an allow comment naming the rule and
    a written reason (syntax in DESIGN.md §15); unused suppressions
    are themselves reported. *)

type t = Nondet_source | Hashtbl_order | Domain_capture | Exn_message | Unsafe_index

val all : t list

val name : t -> string
(** Kebab-case rule id: ["nondet-source"], ["hashtbl-order"],
    ["domain-capture"], ["exn-message"], ["unsafe-index"]. *)

val of_name : string -> t option

val why : t -> string
(** One-line rationale, rendered by [reveal srclint --rules]-style
    documentation surfaces. *)
