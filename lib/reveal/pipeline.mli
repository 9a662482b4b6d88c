(** The staged attack pipeline: typed stage interfaces.

    Every campaign — live or archive replay — is the same
    composition

    {v Source -> Segmenter -> Classifier -> Grader -> Sink v}

    and this module defines the stage contracts the concrete instances
    plug into: {!SOURCE} (where traces come from), {!SEGMENTER} (trace
    to per-coefficient window vectors), {!classifier} (window vector
    to verdict/posterior/fit).  The grader lives in {!Grading}, the
    drivers composing the stages in {!Campaign}, and the hint/lattice
    sink in {!Sink}.  A segmenter reports failure as a typed
    {!Sca.Segment.segment_error}, so failure policy (skip, retry,
    abort) is decided by the driver, not deep inside a stage. *)

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

(** {1 Classifier stage}

    The per-window classification step, packed existentially so a
    driver can carry any {!Sca.Classifier.S} instance without a type
    parameter.  {!classifier_of_profile} wraps the profile's combined
    template attack; an ML classifier only has to implement the
    signature. *)

type classifier = Classifier : (module Sca.Classifier.S with type t = 'c) * 'c -> classifier

val classifier_of_profile : profile -> classifier

(** {1 Segmenter stage} *)

type segmented = {
  vectors : Mathkit.Fvec.t array;
      (** fixed-dimension window vectors, one per coefficient — borrowed
          views of the trace where the window is in bounds
          ({!Sca.Segment.views}), so they must be treated as read-only *)
  quality : Sca.Segment.quality array;
}

module type SEGMENTER = sig
  val name : string
  val segment : profile -> count:int -> Mathkit.Fvec.t -> (segmented, Sca.Segment.segment_error) result
end

type segmenter = (module SEGMENTER)

val resilient_segmenter : segmenter
(** The one attack segmenter, {!Sca.Segment.segment_fv}: it expects
    [count] + 1 bursts (the firmware's trailing dummy), repairs a
    miscounted trace and reports per-window quality, keeping the first
    [count] windows. *)

val run_segmenter :
  segmenter -> profile -> count:int -> Mathkit.Fvec.t -> (segmented, Sca.Segment.segment_error) result

(** {1 Source stage}

    A source yields attack traces one {!item} at a time.  The [acquire]
    thunk does the expensive part (running the device, or checking and
    decoding a replayed record) so a driver can fan items out to
    worker domains; a sequential backing store (an archive reader)
    only reads each record's bytes inside [next]. *)

type acquired = {
  samples : Mathkit.Fvec.t;
      (** Lent from the acquiring domain's samples slot
          ({!Device.samples_slot}), for a live capture
          ({!Device.acquire}) and a replayed record's decode alike: it
          stays valid until that domain's next capture or decode, a
          [remeasure] included.  Grade it, or copy it, on the domain
          that acquired it and before acquiring again there;
          {!Campaign.run_source} does. *)
  noises : int array;  (** ground truth, for scoring *)
  remeasure : (int -> Mathkit.Fvec.t) option;
      (** live sources only: capture the same coefficients again
          (fresh scope/fault realisation); argument is the attempt
          number.  Its samples are lent like [samples], and they
          replace them *)
}

type item = { index : int; acquire : unit -> acquired }

exception Dropped of string
(** Raised by an item's [acquire] when a tolerant source finds the
    record it pulled damaged (a replayed frame failing its checksum on
    the worker); carries the reason.  The driver counts it as it
    counts a [`Skip]. *)

module type SOURCE = sig
  type t

  val name : string

  val next : t -> [ `Item of item | `Skip of string | `End ]
  (** [`Skip] is a record the source dropped at the pull; the driver
      counts it as it counts {!Dropped}. *)

  val close : t -> unit
end

type source = Source : (module SOURCE with type t = 's) * 's -> source

val next_item : source -> [ `Item of item | `Skip of string | `End ]
val close_source : source -> unit

val iter_batches : batch:int -> skip:(string -> unit) -> source -> (item array -> unit) -> unit
(** The one loop that pulls a source, for campaigns
    ({!Campaign.run_source}) and archive profiling alike: hand [f] up
    to [batch] items at a time, in source order, until [`End].  A
    [`Skip] calls [skip] and counts toward the batch.  A pull that
    raises ends its batch: [f] first gets the items pulled before it,
    if any, then the exception is re-raised with its backtrace.  The
    source is closed on exit, also on exceptions.
    @raise Invalid_argument when [batch <= 0]. *)
