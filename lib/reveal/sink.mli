(** The sink stage: graded coefficient results into lattice hardness.

    Converts per-coefficient attack results into DBDD hints on the
    SEAL-128 instance ({!Constants.lwe_instance}) and integrates them
    into before/after block-size estimates — the quantity every table
    of the paper ultimately reports. *)

type security_report = {
  bikz_no_hints : float;
  bikz_with_hints : float;
  bits_no_hints : float;
  bits_with_hints : float;
  perfect_hints : int;
  approximate_hints : int;
}

val lwe_instance : Hints.Lwe.t
(** {!Constants.lwe_instance}. *)

val hints_of_results :
  Grading.coefficient_result array -> int -> (int -> Grading.coefficient_result -> Hints.Hint.t) -> Hints.Hint.t list
(** [hints_of_results results count mk] builds [count] hints, recycling
    the attacked coefficients modulo their number when the campaign was
    smaller than the instance (the per-coordinate hint quality is
    i.i.d., so this is an unbiased extrapolation).
    @raise Failure when [results] is empty. *)

val security_of_hints : ?obs:Obs.Ctx.t -> Hints.Hint.t list -> security_report
(** Fresh DBDD instance, estimate, apply all hints, estimate again.
    With an enabled [obs] context the integration runs inside a
    [sink.integrate] span, the per-kind hint totals land in
    [sink.hints_*] counters, and the before/after block sizes in
    [sink.bikz_no_hints] / [sink.bikz_with_hints] gauges — the final
    rungs of a campaign's run record. *)

val json_of_security : security_report -> Obs.Json.t
