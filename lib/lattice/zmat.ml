type vec = int array
type t = int array array

let overflow () = failwith "Zmat: integer overflow (instance too large for the exact backend)"

let checked_add a b =
  let s = a + b in
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then overflow ();
  s

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a then overflow ();
    p
  end

let dot u v =
  if Array.length u <> Array.length v then invalid_arg "Zmat.dot: length mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length u - 1 do
    acc := checked_add !acc (checked_mul u.(i) v.(i))
  done;
  !acc

let add u v = Array.mapi (fun i x -> checked_add x v.(i)) u
let scale c v = Array.map (fun x -> checked_mul c x) v

let axpy c x y =
  if Array.length x <> Array.length y then invalid_arg "Zmat.axpy: length mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- checked_add y.(i) (checked_mul c x.(i))
  done

let norm_sq v = dot v v
let copy m = Array.map Array.copy m
let cols m = if Array.length m = 0 then 0 else Array.length m.(0)
let swap_rows m i j =
  let t = m.(i) in
  m.(i) <- m.(j);
  m.(j) <- t
