(** Pluggable time source for observability timestamps.

    [wall] reads [Unix.gettimeofday], rebased to the clock's creation
    and monotonized (a reading never goes backwards, even if the
    system clock steps).  [logical] ignores real time entirely: every
    [now] returns the next integer tick, which makes span timings —
    and therefore whole obs traces — byte-reproducible under fixed
    seeds, the property the golden obs-summary test pins. *)

type kind = Wall | Logical

type t

val wall : unit -> t
(** Monotonized wall clock; origin = creation time, so traces start near 0. *)

val logical : unit -> t
(** Deterministic tick counter: [now] returns 1.0, 2.0, 3.0, ... *)

val now : t -> float
(** Current reading in seconds (wall) or ticks (logical).  Thread-safe;
    successive readings never decrease. *)

val kind_name : t -> string
(** ["wall"] or ["logical"] — recorded in the trace's start event. *)
