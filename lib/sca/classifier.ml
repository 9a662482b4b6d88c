module type S = sig
  type t
  type scratch

  val make_scratch : t -> scratch
  val grade : t -> scratch -> Mathkit.Fvec.t -> Attack.graded
end

module Template : S with type t = Attack.t and type scratch = Attack.Scratch.t = struct
  type t = Attack.t
  type scratch = Attack.Scratch.t

  let make_scratch = Attack.make_scratch
  let grade = Attack.grade_fv
end
