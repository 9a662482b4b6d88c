type polar = { mutable cached : float option }

let polar () = { cached = None }
let polar_pending p = p.cached <> None

(* Marsaglia polar method, matching libstdc++'s std::normal_distribution:
   draws points uniformly in the unit disc, rejects |p| >= 1 and p = 0,
   produces two deviates per accepted point and caches the second. *)
let normal_rejections p rng ~mu ~sigma =
  match p.cached with
  | Some v ->
      p.cached <- None;
      ((v *. sigma) +. mu, 0)
  | None ->
      let rec loop rejections =
        let u = (2.0 *. Prng.float rng) -. 1.0 in
        let v = (2.0 *. Prng.float rng) -. 1.0 in
        let s = (u *. u) +. (v *. v) in
        if s >= 1.0 || s = 0.0 then loop (rejections + 1)
        else begin
          let m = sqrt (-2.0 *. log s /. s) in
          p.cached <- Some (v *. m);
          ((u *. m *. sigma) +. mu, rejections)
        end
      in
      loop 0

let normal p rng ~mu ~sigma = fst (normal_rejections p rng ~mu ~sigma)

type clipped = { sigma : float; max_deviation : float }

let seal_sigma = 8.0 /. sqrt (2.0 *. Float.pi)
let seal_default = { sigma = seal_sigma; max_deviation = 6.0 *. seal_sigma }

let clipped_normal p rng c =
  let rec loop () =
    let x = normal p rng ~mu:0.0 ~sigma:c.sigma in
    if Float.abs x > c.max_deviation then loop () else x
  in
  loop ()

let sample_noise p rng c =
  let x = clipped_normal p rng c in
  int_of_float (Float.round x)

let cdf ~mu ~sigma x =
  let z = (x -. mu) /. (sigma *. sqrt 2.0) in
  0.5 *. (1.0 +. Float.erf z)

let discrete_probability ~sigma z =
  let z = float_of_int z in
  cdf ~mu:0.0 ~sigma (z +. 0.5) -. cdf ~mu:0.0 ~sigma (z -. 0.5)

let cdt_table ~sigma ~tail_cut =
  let bound = int_of_float (Float.round (sigma *. tail_cut)) in
  (* Half-normal cumulative masses for z = 0 .. bound. *)
  let masses = Array.init (bound + 1) (fun z -> if z = 0 then discrete_probability ~sigma 0 else 2.0 *. discrete_probability ~sigma z) in
  let total = Array.fold_left ( +. ) 0.0 masses in
  let cdt = Array.make (bound + 1) 0.0 in
  let acc = ref 0.0 in
  for z = 0 to bound do
    acc := !acc +. (masses.(z) /. total);
    cdt.(z) <- !acc
  done;
  cdt.(bound) <- 1.0;
  cdt

let sample_cdt rng cdt =
  let u = Prng.float rng in
  (* Scan the whole table unconditionally: the constant-time design of
     the CDT samplers the paper cites as prior-work targets. *)
  let z = ref 0 in
  for i = Array.length cdt - 1 downto 0 do
    if u < cdt.(i) then z := i
  done;
  let magnitude = !z in
  if magnitude = 0 then 0
  else if Prng.bool rng then magnitude
  else -magnitude

let sample_binomial rng ~k =
  let acc = ref 0 in
  for _ = 1 to k do
    acc := !acc + (if Prng.bool rng then 1 else 0) - if Prng.bool rng then 1 else 0
  done;
  !acc
