type running = { mutable n : int; mutable mean : float; mutable m2 : float }

let running () = { n = 0; mean = 0.0; m2 = 0.0 }

let push r x =
  r.n <- r.n + 1;
  let delta = x -. r.mean in
  r.mean <- r.mean +. (delta /. float_of_int r.n);
  r.m2 <- r.m2 +. (delta *. (x -. r.mean))

let mean r = r.mean
let variance r = if r.n < 2 then 0.0 else r.m2 /. float_of_int (r.n - 1)
let stddev r = sqrt (variance r)

let mean_a xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean_a: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance_a xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean_a xs in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) xs;
    !acc /. float_of_int (n - 1)
  end

let mean_vector rows =
  if Array.length rows = 0 then invalid_arg "Stats.mean_vector: empty";
  let d = Array.length rows.(0) in
  let m = Array.make d 0.0 in
  Array.iter
    (fun r ->
      if Array.length r <> d then invalid_arg "Stats.mean_vector: ragged";
      for j = 0 to d - 1 do
        m.(j) <- m.(j) +. r.(j)
      done)
    rows;
  let n = float_of_int (Array.length rows) in
  Array.map (fun x -> x /. n) m

let scatter rows mu =
  let d = Array.length mu in
  let s = Matrix.create d d in
  Array.iter
    (fun r ->
      let dvec = Array.init d (fun j -> r.(j) -. mu.(j)) in
      for i = 0 to d - 1 do
        if dvec.(i) <> 0.0 then
          for j = 0 to d - 1 do
            Matrix.set s i j (Matrix.get s i j +. (dvec.(i) *. dvec.(j)))
          done
      done)
    rows;
  s

let pooled_covariance classes =
  let classes = Array.to_list classes |> List.filter (fun c -> Array.length c >= 2) in
  (match classes with [] -> invalid_arg "Stats.pooled_covariance: no class with >= 2 rows" | _ -> ());
  let d = Array.length (List.hd classes).(0) in
  let acc = ref (Matrix.create d d) and dof = ref 0 in
  List.iter
    (fun rows ->
      let mu = mean_vector rows in
      acc := Matrix.add !acc (scatter rows mu);
      dof := !dof + Array.length rows - 1)
    classes;
  Matrix.scale (1.0 /. float_of_int !dof) !acc

let argmax xs =
  if Array.length xs = 0 then invalid_arg "Stats.argmax: empty";
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) > xs.(!best) then best := i
  done;
  !best

let log_sum_exp xs =
  if Array.length xs = 0 then invalid_arg "Stats.log_sum_exp: empty";
  let m = Array.fold_left Float.max neg_infinity xs in
  if Float.is_nan m || m = neg_infinity then m
  else m +. log (Array.fold_left (fun acc x -> acc +. exp (x -. m)) 0.0 xs)

let normalize_probs xs =
  let total = Array.fold_left ( +. ) 0.0 xs in
  if total <= 0.0 then invalid_arg "Stats.normalize_probs: non-positive total";
  Array.map (fun x -> x /. total) xs

(* [Float.compare x y < 0] without the three-way result: nan sorts
   below every other float. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

(* Wirth's selection: permutes [a.(0)] .. [a.(len - 1)] until [a.(k)]
   holds the k-th smallest of them under [Float.compare], with no
   larger element before it and no smaller one after it.  The pivot is
   the median of the range's ends and middle, so sorted and reversed
   inputs take linear time; equal keys stop both scans, so ties do
   too. *)
let select a len k =
  let l = ref 0 and r = ref (len - 1) in
  while !l < !r do
    let x =
      let u = a.(!l) and v = a.((!l + !r) / 2) and w = a.(!r) in
      if lt u v then (if lt v w then v else if lt u w then w else u)
      else if lt u w then u
      else if lt v w then w
      else v
    in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while lt a.(!i) x do
        incr i
      done;
      while lt x a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if !j < k then l := !i;
    if k < !i then r := !j
  done

let percentile_in_place a ~len p =
  if len < 0 || len > Array.length a then invalid_arg "Stats.percentile_in_place: len out of range";
  if len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let rank = p /. 100.0 *. float_of_int (len - 1) in
  let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
  let frac = rank -. Float.floor rank in
  (* The order statistics a sort would put at [lo] and [hi]: select
     [lo], then [hi] (= lo or lo + 1) is the least of what lies above. *)
  select a len lo;
  let upper =
    if hi = lo then a.(lo)
    else begin
      let m = ref a.(hi) in
      for i = hi + 1 to len - 1 do
        if lt a.(i) !m then m := a.(i)
      done;
      !m
    end
  in
  (a.(lo) *. (1.0 -. frac)) +. (upper *. frac)

let percentile xs p = percentile_in_place (Array.copy xs) ~len:(Array.length xs) p

let correlation xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Stats.correlation: length mismatch";
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mx = mean_a xs and my = mean_a ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)
  end
