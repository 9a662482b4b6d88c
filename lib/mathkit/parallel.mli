(** Deterministic fork/join parallelism over OCaml 5 domains.

    The campaign code parallelises embarrassingly-parallel trace
    acquisition.  Determinism is preserved by construction: work items
    carry their own seeds, results are returned in index order, and
    the decomposition does not depend on the domain count. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~domains f xs] is [Array.map f xs], with the items
    processed by up to [domains] worker domains (default:
    {!recommended_domains}).  The calling domain is one of the
    workers, so [~domains:1] spawns none.  [f] must not share
    mutable state across items.  When [f] raises, the caller gets the
    exception of the lowest failing index, with every item before it
    run first: what [Array.map f xs] raises, whatever the domain
    count. *)

val map_array_with : ?domains:int -> scratch:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array] with per-domain scratch: every worker domain calls
    [scratch ()] exactly once and passes the value to [f] for each
    item it processes.  Use for reusable buffers (Fvec workspaces,
    classifier scratch) that must not be shared across domains.  The
    schedule is fixed: of [w] workers, worker [k] (the calling domain
    is worker 0) processes items [k], [k + w], [k + 2w] ... in that
    order, so what each domain does repeats from run to run. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8: the calling
    domain counts, so a 2-vCPU host runs two workers, the caller and
    one spawned domain. *)
