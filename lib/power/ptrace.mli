(** Power traces: sample containers plus text/CSV rendering.

    A trace is one oscilloscope capture: samples at a fixed rate,
    arbitrary power units, and nothing else.  Like the paper's attack,
    every stage finds a coefficient's sub-trace from the samples
    alone, so no trace records where individual instructions start. *)

type t = { samples : float array; samples_per_cycle : int }

val length : t -> int

val save_csv : string -> t -> unit
(** Stream the trace as ["index,power"] CSV rows ([%.6f] samples).
    @raise Failure when the file cannot be written; the message names
    the target path (never a bare [Sys_error]). *)

val ascii_plot : ?height:int -> float array -> string
(** Down-sampled ASCII rendering used by the figure benches: at most
    110 columns, [height] rows (default 16). *)
