type profile = {
  attack : Sca.Attack.t;
  window_length : int;
  segment : Sca.Segment.config;
  values : int array;
  sigma : float;
  sign_fit_floor : float;
  value_fit_floor : float;
}

type error =
  | Window_count of { expected : int; found : int }
  | Segmentation of Sca.Segment.segment_error

let error_to_string = function
  | Window_count { expected; found } ->
      (* the strict attack path's historical wording *)
      Printf.sprintf "Campaign: segmentation found %d windows for %d coefficients" found expected
  | Segmentation e -> Sca.Segment.error_to_string e

(* --- classifier stage ----------------------------------------------------- *)

type classifier = Classifier : (module Sca.Classifier.S with type t = 'c) * 'c -> classifier

let classifier_of_profile prof = Classifier ((module Sca.Classifier.Template), prof.attack)

(* --- segmenter stage ------------------------------------------------------ *)

(* The firmware samples a trailing dummy coefficient, so a run over n
   coefficients produces n+1 bursts and we keep the first n windows. *)
let raw_windows segment ~count samples =
  let wins = Sca.Segment.windows_fv segment samples in
  if Array.length wins <> count + 1 then Error (Window_count { expected = count; found = Array.length wins })
  else Ok (Array.sub wins 0 count)

type segmented = { vectors : Mathkit.Fvec.t array; quality : Sca.Segment.quality array }

module type SEGMENTER = sig
  val name : string
  val segment : profile -> count:int -> Mathkit.Fvec.t -> (segmented, error) result
end

type segmenter = (module SEGMENTER)

module Strict_segmenter = struct
  let name = "strict"

  let segment prof ~count samples =
    match raw_windows prof.segment ~count samples with
    | Error _ as e -> e
    | Ok wins ->
        Ok
          {
            vectors = Sca.Segment.views samples wins ~length:prof.window_length;
            quality = Array.make count Sca.Segment.Clean;
          }
end

module Resilient_segmenter = struct
  let name = "resilient"

  let segment prof ~count samples =
    match Sca.Segment.segment_fv prof.segment ~expected:(count + 1) samples with
    | Error e -> Error (Segmentation e)
    | Ok seg ->
        let wins = Array.sub seg.Sca.Segment.wins 0 count in
        let quality = Array.sub seg.Sca.Segment.quality 0 count in
        Ok { vectors = Sca.Segment.views samples wins ~length:prof.window_length; quality }
end

let strict_segmenter : segmenter = (module Strict_segmenter)
let resilient_segmenter : segmenter = (module Resilient_segmenter)
let run_segmenter (module S : SEGMENTER) prof ~count samples = S.segment prof ~count samples

(* --- source stage --------------------------------------------------------- *)

type acquired = {
  samples : Mathkit.Fvec.t;
  noises : int array;
  remeasure : (int -> Mathkit.Fvec.t) option;
}

type item = { index : int; acquire : unit -> acquired }

module type SOURCE = sig
  type t

  val name : string
  val next : t -> [ `Item of item | `Skip of string | `End ]
  val close : t -> unit
end

type source = Source : (module SOURCE with type t = 's) * 's -> source

let next_item (Source ((module S), s)) = S.next s
let close_source (Source ((module S), s)) = S.close s

(* --- source instrumentation ------------------------------------------------ *)

(* Wrap a source so pulls update the obs registry and each item's
   [acquire] thunk runs inside a [stage.acquire] span.  The span fires
   on the worker domain that forces the thunk, which is exactly where
   the acquisition cost is paid.  A disabled context returns the
   source unchanged (physical equality — the no-op invariant the obs
   tests pin). *)
module Instrumented_source = struct
  type t = {
    inner : source;
    obs : Obs.Ctx.t;
    items : Obs.Metrics.counter;
    skips : Obs.Metrics.counter;
  }

  let name = "instrumented"

  let next s =
    match next_item s.inner with
    | `Item it ->
        Obs.Metrics.incr s.items;
        `Item { it with acquire = (fun () -> Obs.Ctx.span s.obs "stage.acquire" it.acquire) }
    | `Skip reason as ev ->
        Obs.Metrics.incr s.skips;
        Obs.Ctx.event ~level:Obs.Ctx.Warn
          ~attrs:[ ("reason", Obs.Json.String reason) ]
          s.obs "source.skip";
        ev
    | `End -> `End

  let close s = close_source s.inner
end

let instrument_source obs src =
  if not (Obs.Ctx.enabled obs) then src
  else
    Source
      ( (module Instrumented_source),
        {
          Instrumented_source.inner = src;
          obs;
          items = Obs.Ctx.counter obs "source.items";
          skips = Obs.Ctx.counter obs "source.skips";
        } )
