(** Self-delimiting (length-prefixed), lossless codecs for the
    archive's two array streams and the profile cache's float arrays.

    The archive stores a record's samples as a raw plane
    ({!put_plane}): each sample's IEEE-754 bits as one little-endian
    u64 word.  Label streams zigzag each small signed value directly
    ({!put_ints}).  The float delta codec ({!put_floats}) serves only
    the profile cache.  Every decoder reproduces the exact bits its
    encoder was given. *)

val put_plane : Buffer.t -> float array -> unit
(** Varint count, then one little-endian IEEE-754 word per float. *)

val get_plane_into : Binio.cursor -> into:(int -> Mathkit.Fvec.t) -> Mathkit.Fvec.t
(** The plane of [count] samples decoded straight into the first
    [count] elements of [into count] (a vector at least that long),
    with no intermediate [float array]; returns that prefix view and
    leaves the rest of the vector as it was.  The count is checked
    against the bytes left before [into] is called.
    @raise Invalid_argument when [into] returns a shorter vector. *)

val put_floats : Buffer.t -> float array -> unit
(** Deltas of consecutive IEEE-754 bit patterns, zigzag + varint. *)

val get_floats : Binio.cursor -> float array

val put_ints : Buffer.t -> int array -> unit
val get_ints : Binio.cursor -> int array
