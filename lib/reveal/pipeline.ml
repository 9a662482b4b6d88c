type profile = {
  attack : Sca.Attack.t;
  window_length : int;
  segment : Sca.Segment.config;
  values : int array;
  sigma : float;
  sign_fit_floor : float;
  value_fit_floor : float;
}

(* --- classifier stage ----------------------------------------------------- *)

type classifier = Classifier : (module Sca.Classifier.S with type t = 'c) * 'c -> classifier

let classifier_of_profile prof = Classifier ((module Sca.Classifier.Template), prof.attack)

(* --- segmenter stage ------------------------------------------------------ *)

type segmented = { vectors : Mathkit.Fvec.t array; quality : Sca.Segment.quality array }

module type SEGMENTER = sig
  val name : string
  val segment : profile -> count:int -> Mathkit.Fvec.t -> (segmented, Sca.Segment.segment_error) result
end

type segmenter = (module SEGMENTER)

(* The firmware samples a trailing dummy coefficient, so a run over n
   coefficients produces n+1 bursts and we keep the first n windows. *)
module Resilient_segmenter = struct
  let name = "resilient"

  let segment prof ~count samples =
    Result.map
      (fun seg ->
        let wins = Array.sub seg.Sca.Segment.wins 0 count in
        let quality = Array.sub seg.Sca.Segment.quality 0 count in
        { vectors = Sca.Segment.views samples wins ~length:prof.window_length; quality })
      (Sca.Segment.segment_fv prof.segment ~expected:(count + 1) samples)
end

let resilient_segmenter : segmenter = (module Resilient_segmenter)
let run_segmenter (module S : SEGMENTER) prof ~count samples = S.segment prof ~count samples

(* --- source stage --------------------------------------------------------- *)

type acquired = {
  samples : Mathkit.Fvec.t;
  noises : int array;
  remeasure : (int -> Mathkit.Fvec.t) option;
}

type item = { index : int; acquire : unit -> acquired }

exception Dropped of string

module type SOURCE = sig
  type t

  val name : string
  val next : t -> [ `Item of item | `Skip of string | `End ]
  val close : t -> unit
end

type source = Source : (module SOURCE with type t = 's) * 's -> source

let next_item (Source ((module S), s)) = S.next s
let close_source (Source ((module S), s)) = S.close s
