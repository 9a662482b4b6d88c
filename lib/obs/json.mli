(** Hand-rolled JSON codec — the single JSON implementation in the
    tree (the repo has no JSON dependency, deliberately).

    Traces, reports and the CLI's [--json] output all build this type
    directly.  Emission is compact, floats pinned to ["%.12g"],
    NaN/infinity rendered as [null], and integral floats keep an
    explicit [".0"].  The parser is what [obs summarize] and the codec
    round-trip tests consume: it accepts everything the emitter
    produces (and standard JSON beyond it — ["\u"] escapes, ["\/"],
    ["\b"], ["\f"]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val print : t -> unit
(** [to_string] to stdout plus a newline — the [--json] output path. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing garbage is an error.
    Errors carry the byte offset ([Error "offset 12: ..."]).  Numbers
    containing '.', 'e' or 'E' parse as [Float], the rest as [Int]
    (falling back to [Float] past 63-bit range). *)

(** {1 Accessors} — for walking parsed event records. *)

val member : string -> t -> t option
(** [member key (Obj fields)] — [None] for missing keys and non-objects. *)

val to_float_opt : t -> float option
(** [Float f] or [Int i] (widened); [None] otherwise. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
