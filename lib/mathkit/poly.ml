type t = int array

let zero n = Array.make n 0

let check_same_len a b = if Array.length a <> Array.length b then invalid_arg "Poly: length mismatch"

let mul_schoolbook md a b =
  check_same_len a b;
  let n = Array.length a in
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.(i) <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        let p = Modular.mul md a.(i) b.(j) in
        if k < n then c.(k) <- Modular.add md c.(k) p
        else c.(k - n) <- Modular.sub md c.(k - n) p (* x^n = -1 *)
      done
  done;
  c

let uniform rng md n = Array.init n (fun _ -> Prng.int rng md.Modular.value)
let equal a b = a = b
