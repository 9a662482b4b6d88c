let secret_key rng ctx = { Keys.s = Rq.ternary rng ctx }

let public_key rng ctx sk =
  let a = Rq.uniform rng ctx in
  let e, _ = Sampler.set_poly_coeffs_normal_v32 rng ctx in
  let p0 = Rq.neg ctx (Rq.add ctx (Rq.mul ctx a sk.Keys.s) e) in
  { Keys.p0; p1 = a }
