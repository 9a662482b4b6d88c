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

let set_poly_coeffs_normal_v32 rng ctx =
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
    assign_v32 ctx planes i noise
  done;
  (Rq.of_planes ctx planes, { noises; rejections })

let of_noises ctx noises =
  let params = Rq.params ctx in
  if Array.length noises <> params.Params.n then invalid_arg "Sampler.of_noises: wrong length";
  let k = Array.length (Rq.moduli ctx) in
  let planes = Array.init k (fun _ -> Array.make params.Params.n 0) in
  Array.iteri (fun i z -> assign_v32 ctx planes i z) noises;
  Rq.of_planes ctx planes
