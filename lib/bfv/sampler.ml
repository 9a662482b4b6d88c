type draw_log = {
  noises : int array;
  rejections : int array;
}

(* The assignment ladder of Fig. 2, lines 13-29. *)
let assign_v32 ctx poly_planes i noise =
  let moduli = Rq.moduli ctx in
  if noise > 0 then
    Array.iteri (fun j _ -> poly_planes.(j).(i) <- noise) moduli
  else if noise < 0 then begin
    let noise = -noise in
    Array.iteri (fun j md -> poly_planes.(j).(i) <- md.Mathkit.Modular.value - noise) moduli
  end
  else Array.iteri (fun j _ -> poly_planes.(j).(i) <- 0) moduli

(* v3.6-style branch-free assignment: value = noise + (q & mask). *)
let assign_v36 ctx poly_planes i noise =
  let moduli = Rq.moduli ctx in
  Array.iteri
    (fun j md ->
      let mask_q = if noise < 0 then md.Mathkit.Modular.value else 0 in
      poly_planes.(j).(i) <- noise + mask_q)
    moduli

let sample assign rng ctx =
  let params = Rq.params ctx in
  let n = params.Params.n in
  let k = Array.length (Rq.moduli ctx) in
  let polar = Mathkit.Gaussian.polar () in
  let planes = Array.init k (fun _ -> Array.make n 0) in
  let noises = Array.make n 0 and rejections = Array.make n 0 in
  for i = 0 to n - 1 do
    let noise, rej = Mathkit.Gaussian.clipped_draw polar rng params.Params.noise in
    noises.(i) <- noise;
    rejections.(i) <- rej;
    assign ctx planes i noise
  done;
  (Rq.of_planes ctx planes, { noises; rejections })

let set_poly_coeffs_normal_v32 rng ctx = sample assign_v32 rng ctx
let set_poly_coeffs_normal_v36 rng ctx = sample assign_v36 rng ctx

let set_poly_coeffs_cdt rng ctx =
  let params = Rq.params ctx in
  let n = params.Params.n in
  let k = Array.length (Rq.moduli ctx) in
  let noise = params.Params.noise in
  let cdt = Mathkit.Gaussian.cdt_table ~sigma:noise.Mathkit.Gaussian.sigma ~tail_cut:6.0 in
  let planes = Array.init k (fun _ -> Array.make n 0) in
  let noises = Array.make n 0 in
  for i = 0 to n - 1 do
    let z = Mathkit.Gaussian.sample_cdt rng cdt in
    noises.(i) <- z;
    assign_v32 ctx planes i z
  done;
  (Rq.of_planes ctx planes, { noises; rejections = Array.make n 0 })

let of_noises ctx noises =
  let params = Rq.params ctx in
  if Array.length noises <> params.Params.n then invalid_arg "Sampler.of_noises: wrong length";
  let k = Array.length (Rq.moduli ctx) in
  let planes = Array.init k (fun _ -> Array.make params.Params.n 0) in
  Array.iteri (fun i z -> assign_v32 ctx planes i z) noises;
  Rq.of_planes ctx planes
