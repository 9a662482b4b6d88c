type polar = { mutable cached : float option }

let polar () = { cached = None }
let polar_pending p = p.cached <> None

(* [Prng.float]'s bits, without its boxed result *)
let[@inline] uniform rng = float_of_int (Prng.bits53 rng) *. 0x1p-53

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
        let u = (2.0 *. uniform rng) -. 1.0 in
        let v = (2.0 *. uniform rng) -. 1.0 in
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

(* [normal_rejections]'s loop without the cache: an accepted point adds
   [u *. m] to one element and the deviate a polar would cache, [v *. m],
   to the next.  [+. 0.0] is [normal]'s [+. mu].  No float is boxed. *)
let add_normal rng ~sigma a =
  let n = Array.length a and i = ref 0 in
  while !i < n do
    let u = (2.0 *. uniform rng) -. 1.0 in
    let v = (2.0 *. uniform rng) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if not (s >= 1.0 || s = 0.0) then begin
      let m = sqrt (-2.0 *. log s /. s) in
      a.(!i) <- a.(!i) +. ((u *. m *. sigma) +. 0.0);
      if !i + 1 < n then a.(!i + 1) <- a.(!i + 1) +. ((v *. m *. sigma) +. 0.0);
      i := !i + 2
    end
  done

type clipped = { sigma : float; max_deviation : float }

let seal_sigma = 8.0 /. sqrt (2.0 *. Float.pi)
let seal_default = { sigma = seal_sigma; max_deviation = 6.0 *. seal_sigma }

let clipped_draw p rng c =
  let rec go rejections =
    let x, polar_rej = normal_rejections p rng ~mu:0.0 ~sigma:c.sigma in
    let rejections = rejections + polar_rej in
    if Float.abs x > c.max_deviation then go (rejections + 1) else (int_of_float (Float.round x), rejections)
  in
  go 0

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
