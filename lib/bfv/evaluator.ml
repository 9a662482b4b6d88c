let map_parts2 f a b =
  let la = Array.length a.Keys.parts and lb = Array.length b.Keys.parts in
  let n = max la lb in
  { Keys.parts = Array.init n (fun i -> f (if i < la then Some a.Keys.parts.(i) else None) (if i < lb then Some b.Keys.parts.(i) else None)) }

let add ctx a b =
  map_parts2
    (fun x y ->
      match (x, y) with
      | Some x, Some y -> Rq.add ctx x y
      | Some x, None | None, Some x -> Rq.copy x
      | None, None -> assert false)
    a b

let mul_plain ctx c m =
  if Array.for_all (fun x -> x = 0) m.Keys.coeffs then
    invalid_arg "Evaluator.mul_plain: transparent result (zero plaintext)";
  let pt = Rq.of_centered ctx m.Keys.coeffs in
  { Keys.parts = Array.map (fun part -> Rq.mul ctx part pt) c.Keys.parts }

(* --- exact tensor multiply -------------------------------------------- *)

(* Signed bignum helpers: (negative, magnitude). *)
type sbig = bool * Mathkit.Bignum.t

let szero : sbig = (false, Mathkit.Bignum.zero)

let sadd ((na, ma) : sbig) ((nb, mb) : sbig) : sbig =
  if na = nb then (na, Mathkit.Bignum.add ma mb)
  else if Mathkit.Bignum.compare ma mb >= 0 then (na, Mathkit.Bignum.sub ma mb)
  else (nb, Mathkit.Bignum.sub mb ma)

let smul ((na, ma) : sbig) ((nb, mb) : sbig) : sbig = (na <> nb, Mathkit.Bignum.mul ma mb)

let sneg ((n, m) : sbig) : sbig = (not n, m)

let sbig_of_centered (mag, negative) : sbig = (negative, mag)

(* Negacyclic product of two centered big-integer polynomials. *)
let znegacyclic_mul a b =
  let n = Array.length a in
  let c = Array.make n szero in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let p = smul a.(i) b.(j) in
      let k = i + j in
      if k < n then c.(k) <- sadd c.(k) p else c.(k - n) <- sadd c.(k - n) (sneg p)
    done
  done;
  c

(* round(t * x / q) for signed x, rounding to nearest (ties away from
   zero on the negative side is fine: the final reduction mod q makes
   at most a 1-ulp noise difference, absorbed by BFV's noise margin). *)
let scale_coeff ~t ~q ((neg, mag) : sbig) : sbig = (neg, Mathkit.Bignum.round_div (Mathkit.Bignum.mul t mag) q)

let rq_of_sbig ctx coeffs =
  let moduli = Rq.moduli ctx in
  let planes =
    Array.map
      (fun md ->
        Array.map
          (fun (neg, mag) ->
            let r = Mathkit.Bignum.mod_int mag md.Mathkit.Modular.value in
            if neg then Mathkit.Modular.neg md r else r)
          coeffs)
      moduli
  in
  Rq.of_planes ctx planes

let multiply ctx a b =
  let params = Rq.params ctx in
  let t = Mathkit.Bignum.of_int params.Params.plain_modulus in
  let q = Params.total_modulus params in
  let lift part = Array.map sbig_of_centered (Rq.to_centered_bignum ctx part) in
  let pa = Array.map lift a.Keys.parts and pb = Array.map lift b.Keys.parts in
  let la = Array.length pa and lb = Array.length pb in
  let out = Array.make (la + lb - 1) None in
  for i = 0 to la - 1 do
    for j = 0 to lb - 1 do
      let prod = znegacyclic_mul pa.(i) pb.(j) in
      out.(i + j) <-
        (match out.(i + j) with
        | None -> Some prod
        | Some acc -> Some (Array.mapi (fun k c -> sadd c prod.(k)) acc))
    done
  done;
  let parts =
    Array.map
      (function
        | None -> assert false
        | Some coeffs -> rq_of_sbig ctx (Array.map (scale_coeff ~t ~q) coeffs))
      out
  in
  { Keys.parts }
