(** Blockwise Korkine–Zolotarev reduction.

    Textbook BKZ: sweep enumeration over sliding blocks of the
    LLL-reduced basis; when the enumerated vector improves on the
    block's first Gram–Schmidt norm, lift it into the basis through a
    unimodular completion of its (primitive) coefficient vector and
    re-run LLL.  Exact enumeration, no pruning: usable at the toy
    dimensions of the validation experiments, which is also all the
    paper itself uses BKZ for (cost estimation, not execution, at
    n = 1024). *)

val unimodular_completion : int array -> int array array
(** A unimodular matrix whose first row is the given primitive vector.
    @raise Invalid_argument when the gcd of the entries is not 1. *)

val reduce : block_size:int -> Zmat.t -> unit
(** In-place BKZ-[block_size] over LLL with its default Lovász
    parameter; stops after a tour with no improvement or after 16
    tours. *)
