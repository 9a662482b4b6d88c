(** Deterministic fork/join parallelism over OCaml 5 domains.

    The campaign code parallelises embarrassingly-parallel trace
    acquisition.  Determinism is preserved by construction: work items
    carry their own seeds, results are returned in index order, and
    the decomposition does not depend on the domain count. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~domains f xs] is [Array.map f xs], with the items
    processed by up to [domains] worker domains (default: the
    recommended domain count, capped at 8).  [f] must not share
    mutable state across items.  Exceptions raised by [f] are
    re-raised in the caller. *)

val map_array_with : ?domains:int -> scratch:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array] with per-domain scratch: every worker domain calls
    [scratch ()] exactly once and passes the value to [f] for each
    item it processes.  Use for reusable buffers (Fvec workspaces,
    classifier scratch) that must not be shared across domains. *)

val recommended_domains : unit -> int
