type randomness = {
  u : Rq.t;
  e1 : Rq.t;
  e2 : Rq.t;
  e1_log : Sampler.draw_log;
  e2_log : Sampler.draw_log;
}

let delta_m ctx m =
  let scaled = Rq.of_centered ctx (Array.map (fun c -> c) m.Keys.coeffs) in
  Rq.mul_scalar_planes ctx (Params.delta_mod (Rq.params ctx)) scaled

let encrypt_with ctx pk m r =
  let c0 = Rq.add ctx (delta_m ctx m) (Rq.add ctx (Rq.mul ctx pk.Keys.p0 r.u) r.e1) in
  let c1 = Rq.add ctx (Rq.mul ctx pk.Keys.p1 r.u) r.e2 in
  { Keys.parts = [| c0; c1 |] }

let encrypt rng ctx pk m =
  let u = Rq.ternary rng ctx in
  let e1, e1_log = Sampler.set_poly_coeffs_normal_v32 rng ctx in
  let e2, e2_log = Sampler.set_poly_coeffs_normal_v32 rng ctx in
  let r = { u; e1; e2; e1_log; e2_log } in
  (encrypt_with ctx pk m r, r)
