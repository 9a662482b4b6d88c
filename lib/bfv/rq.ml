type context = {
  params : Params.t;
  moduli : Mathkit.Modular.modulus array;
  plans : Mathkit.Ntt.plan array;
  rns : Mathkit.Rns.t;
}

let context params =
  let moduli = Array.map Mathkit.Modular.modulus params.Params.coeff_modulus in
  let plans = Array.map (fun md -> Mathkit.Ntt.plan md params.Params.n) moduli in
  let rns = Mathkit.Rns.create (Array.to_list params.Params.coeff_modulus) in
  { params; moduli; plans; rns }

let params ctx = ctx.params
let moduli ctx = ctx.moduli
let rns ctx = ctx.rns

type t = { planes : int array array }

let plane_count ctx = Array.length ctx.moduli
let zero ctx = { planes = Array.init (plane_count ctx) (fun _ -> Array.make ctx.params.Params.n 0) }
let copy x = { planes = Array.map Array.copy x.planes }

let of_planes ctx planes =
  if Array.length planes <> plane_count ctx then invalid_arg "Rq.of_planes: plane count mismatch";
  Array.iteri
    (fun j p ->
      if Array.length p <> ctx.params.Params.n then invalid_arg "Rq.of_planes: wrong degree";
      Array.iter (fun c -> if c < 0 || c >= ctx.moduli.(j).Mathkit.Modular.value then invalid_arg "Rq.of_planes: coefficient out of range") p)
    planes;
  { planes = Array.map Array.copy planes }

let of_centered ctx coeffs =
  if Array.length coeffs <> ctx.params.Params.n then invalid_arg "Rq.of_centered: wrong degree";
  { planes = Array.map (fun md -> Array.map (Mathkit.Modular.of_centered md) coeffs) ctx.moduli }

let to_centered_bignum ctx x =
  Array.init ctx.params.Params.n (fun i ->
      let residues = Array.map (fun p -> p.(i)) x.planes in
      Mathkit.Rns.compose_centered ctx.rns residues)

let to_centered_small ctx x =
  Array.map
    (fun (mag, negative) ->
      let v = Mathkit.Bignum.to_int mag in
      if negative then -v else v)
    (to_centered_bignum ctx x)

let map2 ctx f a b =
  { planes = Array.init (plane_count ctx) (fun j -> Array.init ctx.params.Params.n (fun i -> f ctx.moduli.(j) a.planes.(j).(i) b.planes.(j).(i))) }

let add ctx a b = map2 ctx Mathkit.Modular.add a b
let sub ctx a b = map2 ctx Mathkit.Modular.sub a b
let neg ctx a = { planes = Array.mapi (fun j p -> Array.map (Mathkit.Modular.neg ctx.moduli.(j)) p) a.planes }

let mul ctx a b =
  { planes = Array.init (plane_count ctx) (fun j -> Mathkit.Ntt.multiply ctx.plans.(j) a.planes.(j) b.planes.(j)) }

let mul_scalar_planes ctx scalars a =
  if Array.length scalars <> plane_count ctx then invalid_arg "Rq.mul_scalar_planes: scalar count mismatch";
  { planes = Array.mapi (fun j p -> Array.map (Mathkit.Modular.mul ctx.moduli.(j) scalars.(j)) p) a.planes }

let uniform rng ctx =
  { planes = Array.map (fun md -> Mathkit.Poly.uniform rng md ctx.params.Params.n) ctx.moduli }

let ternary rng ctx =
  let coeffs = Array.init ctx.params.Params.n (fun _ -> Mathkit.Prng.ternary rng) in
  of_centered ctx coeffs

let equal a b = a.planes = b.planes

let invert ctx a =
  let exception Not_invertible in
  try
    let planes =
      Array.init (plane_count ctx) (fun j ->
          let md = ctx.moduli.(j) in
          let f = Array.copy a.planes.(j) in
          Mathkit.Ntt.forward ctx.plans.(j) f;
          let g = Array.map (fun c -> if c = 0 then raise Not_invertible else Mathkit.Modular.inv md c) f in
          Mathkit.Ntt.inverse ctx.plans.(j) g;
          g)
    in
    Some { planes }
  with Not_invertible -> None
