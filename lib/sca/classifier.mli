(** The narrow per-window classifier interface of the attack pipeline.

    Everything the grading and hint stages need from a trained
    classifier fits in one call: {!S.grade} returns a hard verdict,
    the full value posterior, the sign confidence and the two absolute
    goodness-of-fit scores the confidence gate compares against its
    calibrated floors.  Windows arrive as {!Mathkit.Fvec} views
    (possibly aliasing the trace buffer — implementations must treat
    them as read-only), and every call threads a [scratch] the
    implementation allocated in [make_scratch]: per-domain reusable
    buffers, so the hot loop is allocation-free.  A stateless
    classifier can use [scratch = unit].

    The combined template attack ({!Attack}) is the first instance; an
    ML classifier (GALACTICS-style) or a per-variant specialisation
    only has to implement [S] to slot into the same pipeline. *)

module type S = sig
  type t
  (** Trained classifier state. *)

  type scratch
  (** Per-domain mutable scoring workspace.  Never share one scratch
      across domains. *)

  val make_scratch : t -> scratch
  (** Fresh scratch sized for this classifier. *)

  val grade : t -> scratch -> Mathkit.Fvec.t -> Attack.graded
  (** Score one window view: the verdict, the joint posterior over
      every candidate value, the peak of the flat-prior sign posterior
      (how unambiguous the branch-region match is), and the best-class
      log densities under the sign model and under the recovered
      sign's value model — the gate's inputs.  See
      {!Attack.grade_fv}. *)
end

module Template : S with type t = Attack.t and type scratch = Attack.Scratch.t
(** The combined template attack behind the narrow interface. *)
