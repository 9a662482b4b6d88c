(** The staged attack pipeline: typed stage interfaces and errors.

    Every campaign — live or archive replay — is the same
    composition

    {v Source -> Segmenter -> Classifier -> Grader -> Sink v}

    and this module defines the stage contracts the concrete instances
    plug into: {!SOURCE} (where traces come from), {!SEGMENTER} (trace
    to per-coefficient window vectors), {!classifier} (window vector
    to verdict/posterior/fit).  The grader lives in {!Grading}, the
    drivers composing the stages in {!Campaign}, and the hint/lattice
    sink in {!Sink}.  A single {!error} type carries every way a stage
    can fail, so failure policy (skip, retry, abort) is decided by the
    driver, not deep inside a stage. *)

type profile = {
  attack : Sca.Attack.t;
  window_length : int;
  segment : Sca.Segment.config;  (** with the calibrated absolute threshold *)
  values : int array;  (** candidate labels, e.g. -14..14 *)
  sigma : float;
  sign_fit_floor : float;
      (** goodness-of-fit floor for the sign template, calibrated on
          the profiling windows — attack windows scoring below it are
          out-of-distribution (faulted) and grade Unknown *)
  value_fit_floor : float;  (** same, for the value templates: below it a window is at best SignOnly *)
}
(** The trained state every stage reads: templates, POIs, calibrated
    segmentation and fit floors.  Built by {!Profiling}, persisted by
    {!Profile_store}. *)

(** {1 Errors} *)

type error =
  | Window_count of { expected : int; found : int }
      (** the strict segmenter found a window count other than
          coefficients + 1 (trailing dummy) *)
  | Segmentation of Sca.Segment.segment_error
      (** the resilient segmenter could not repair the trace *)

val error_to_string : error -> string
(** A one-line message for the user.  [Window_count] renders as
    ["Campaign: segmentation found %d windows for %d coefficients"]. *)

(** {1 Classifier stage}

    The per-window classification step, packed existentially so a
    driver can carry any {!Sca.Classifier.S} instance without a type
    parameter.  {!classifier_of_profile} wraps the profile's combined
    template attack; an ML classifier only has to implement the
    signature. *)

type classifier = Classifier : (module Sca.Classifier.S with type t = 'c) * 'c -> classifier

val classifier_of_profile : profile -> classifier

(** {1 Segmenter stage} *)

val raw_windows :
  Sca.Segment.config -> count:int -> Mathkit.Fvec.t -> (Sca.Segment.window array, error) result
(** The shared strict window extraction: exactly [count] + 1 windows
    (the firmware's trailing dummy) or [Window_count], keeping the
    first [count].  Used by the strict segmenter and by profiling's
    window labelling. *)

type segmented = {
  vectors : Mathkit.Fvec.t array;
      (** fixed-dimension window vectors, one per coefficient — borrowed
          views of the trace where the window is in bounds
          ({!Sca.Segment.views}), so they must be treated as read-only *)
  quality : Sca.Segment.quality array;
}

module type SEGMENTER = sig
  val name : string
  val segment : profile -> count:int -> Mathkit.Fvec.t -> (segmented, error) result
end

type segmenter = (module SEGMENTER)

val strict_segmenter : segmenter
(** Window count must match exactly; every window is [Clean].  The
    classic pipeline. *)

val resilient_segmenter : segmenter
(** {!Sca.Segment.segment_fv}: repairs miscounted bursts and reports
    per-window quality.  The fault-tolerant pipeline. *)

val run_segmenter : segmenter -> profile -> count:int -> Mathkit.Fvec.t -> (segmented, error) result

(** {1 Source stage}

    A source yields attack traces one {!item} at a time.  The [acquire]
    thunk does the expensive part (running the device, or decoding) so
    a driver can fan items out to worker domains; sources whose
    backing store is sequential (an archive reader) decode inside
    [next] instead and return a constant thunk. *)

type acquired = {
  samples : Mathkit.Fvec.t;
  noises : int array;  (** ground truth, for scoring *)
  remeasure : (int -> Mathkit.Fvec.t) option;
      (** live sources only: capture the same coefficients again
          (fresh scope/fault realisation); argument is the attempt
          number *)
}

type item = { index : int; acquire : unit -> acquired }

module type SOURCE = sig
  type t

  val name : string

  val next : t -> [ `Item of item | `Skip of string | `End ]
  (** [`Skip] is a record the source dropped (corrupt frame in a
      tolerant archive replay); the driver counts it. *)

  val close : t -> unit
end

type source = Source : (module SOURCE with type t = 's) * 's -> source

val next_item : source -> [ `Item of item | `Skip of string | `End ]
val close_source : source -> unit

val instrument_source : Obs.Ctx.t -> source -> source
(** Observability wrapper: pulls count [source.items] / [source.skips]
    in the context's registry (each skip also emits a warn-level
    [source.skip] event), and every item's [acquire] thunk runs inside
    a [stage.acquire] span — timed on whichever domain forces it.
    With a disabled context this returns the source itself (physical
    equality), so uninstrumented campaigns pay nothing.  Closing the
    wrapper closes the wrapped source. *)
