(** Power traces: sample containers plus text/CSV rendering.

    A trace is one oscilloscope capture: samples at a fixed rate,
    arbitrary power units.  Also carries the sample index at which
    each retired instruction started, which profiling uses as ground
    truth (the attacker's analysis never reads it). *)

type t = {
  samples : float array;
  samples_per_cycle : int;
  event_start : int array;  (** event index -> first sample index *)
  event_pc : int array;  (** event index -> pc, for ground-truth region labelling *)
}

val length : t -> int
val mean : t -> float

val save_csv : string -> t -> unit
(** Stream the trace as ["index,power"] CSV rows ([%.6f] samples;
    events are not written).
    @raise Failure when the file cannot be written; the message names
    the target path (never a bare [Sys_error]). *)

val ascii_plot : ?width:int -> ?height:int -> float array -> string
(** Down-sampled ASCII rendering used by the figure benches. *)
