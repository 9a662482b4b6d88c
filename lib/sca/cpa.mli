(** Correlation power analysis utilities.

    Classical CPA correlates a per-trace leakage hypothesis (usually
    the Hamming weight of a predicted intermediate) with every trace
    sample.  Two uses here:

    - {!correlation_trace}: the textbook multi-trace distinguisher,
      the baseline the paper's threat model rules out — BFV
      encryption draws fresh noise every run, so there is no fixed
      secret for CPA to accumulate over traces.
    - {!correlation_poi}: correlation against the *known* profiling
      labels as an alternative point-of-interest selector, compared
      with SOSD/SOST in the ablations. *)

val correlation_trace : float array array -> float array -> float array
(** [correlation_trace traces hypothesis]: Pearson correlation of each
    sample column with the per-trace hypothesis values.
    @raise Invalid_argument on mismatched lengths. *)

val correlation_poi : ?count:int -> float array array -> int array -> int array
(** POIs: the [count] (default 16) samples most correlated (absolute)
    with the labels' Hamming weights. *)
