type t = { r : int; c : int; a : float array array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Matrix.create";
  { r; c; a = Array.make_matrix r c 0.0 }

let init r c f = { r; c; a = Array.init r (fun i -> Array.init c (fun j -> f i j)) }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let r = Array.length a in
  let c = if r = 0 then 0 else Array.length a.(0) in
  Array.iter (fun row -> if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged") a;
  { r; c; a = Array.map Array.copy a }

let rows m = m.r
let cols m = m.c
let get m i j = m.a.(i).(j)
let set m i j v = m.a.(i).(j) <- v
let copy m = { m with a = Array.map Array.copy m.a }
let transpose m = init m.c m.r (fun i j -> m.a.(j).(i))

let check_same m n = if m.r <> n.r || m.c <> n.c then invalid_arg "Matrix: shape mismatch"

let add m n =
  check_same m n;
  init m.r m.c (fun i j -> m.a.(i).(j) +. n.a.(i).(j))

let scale s m = init m.r m.c (fun i j -> s *. m.a.(i).(j))

let mul m n =
  if m.c <> n.r then invalid_arg "Matrix.mul: inner dimension mismatch";
  let out = create m.r n.c in
  for i = 0 to m.r - 1 do
    let mi = m.a.(i) and oi = out.a.(i) in
    for k = 0 to m.c - 1 do
      let mik = mi.(k) in
      if mik <> 0.0 then begin
        let nk = n.a.(k) in
        for j = 0 to n.c - 1 do
          oi.(j) <- oi.(j) +. (mik *. nk.(j))
        done
      end
    done
  done;
  out

let mul_vec m v =
  if m.c <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.c - 1 do
        acc := !acc +. (m.a.(i).(j) *. v.(j))
      done;
      !acc)

let dot u v =
  if Array.length u <> Array.length v then invalid_arg "Matrix.dot: length mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let axpy a x y =
  if Array.length x <> Array.length y then invalid_arg "Matrix.axpy: length mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let trace m =
  let n = min m.r m.c in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. m.a.(i).(i)
  done;
  !acc

let frobenius m =
  let acc = ref 0.0 in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      acc := !acc +. (m.a.(i).(j) *. m.a.(i).(j))
    done
  done;
  sqrt !acc

let max_abs_diff m n =
  check_same m n;
  let acc = ref 0.0 in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      acc := Float.max !acc (Float.abs (m.a.(i).(j) -. n.a.(i).(j)))
    done
  done;
  !acc
