type gso = {
  mu : float array array;
  b_star_sq : float array;
}

let fdot u v =
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let gso basis =
  let n = Array.length basis in
  let mu = Array.make_matrix n n 0.0 in
  let b_star = Array.map (Array.map float_of_int) basis in
  let b_star_sq = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      let bi = Array.map float_of_int basis.(i) in
      mu.(i).(j) <- fdot bi b_star.(j) /. b_star_sq.(j);
      for k = 0 to Array.length b_star.(i) - 1 do
        b_star.(i).(k) <- b_star.(i).(k) -. (mu.(i).(j) *. b_star.(j).(k))
      done
    done;
    b_star_sq.(i) <- fdot b_star.(i) b_star.(i);
    if b_star_sq.(i) <= 0.0 then invalid_arg "Lll: linearly dependent basis"
  done;
  { mu; b_star_sq }

(* Incremental LLL (Cohen, "A Course in Computational Algebraic Number
   Theory", Algorithm 2.6.3): the Gram-Schmidt shadow (mu, B) is
   maintained under size reductions and swaps instead of being
   recomputed, so a reduction costs O(n^3) arithmetic overall.  The
   basis itself stays exact (integers); only the shadow is floating
   point, which is ample for the entry sizes the toy experiments
   use. *)
let delta = 0.99

let reduce basis =
  let n = Array.length basis in
  if n <= 1 then ()
  else begin
    let g = gso basis in
    let mu = g.mu and b = g.b_star_sq in
    (* RED(k, l): make |mu_{k,l}| <= 1/2. *)
    let red k l =
      let q = Float.round mu.(k).(l) in
      if Float.abs q >= 1.0 then begin
        let qi = int_of_float q in
        Zmat.axpy (-qi) basis.(l) basis.(k);
        mu.(k).(l) <- mu.(k).(l) -. q;
        for j = 0 to l - 1 do
          mu.(k).(j) <- mu.(k).(j) -. (q *. mu.(l).(j))
        done
      end
    in
    (* SWAP(k): exchange rows k and k-1, update the shadow. *)
    let swap k =
      Zmat.swap_rows basis k (k - 1);
      for j = 0 to k - 2 do
        let t = mu.(k).(j) in
        mu.(k).(j) <- mu.(k - 1).(j);
        mu.(k - 1).(j) <- t
      done;
      let m = mu.(k).(k - 1) in
      let bb = b.(k) +. (m *. m *. b.(k - 1)) in
      mu.(k).(k - 1) <- m *. b.(k - 1) /. bb;
      b.(k) <- b.(k - 1) *. b.(k) /. bb;
      b.(k - 1) <- bb;
      for i = k + 1 to n - 1 do
        let t = mu.(i).(k) in
        mu.(i).(k) <- mu.(i).(k - 1) -. (m *. t);
        mu.(i).(k - 1) <- t +. (mu.(k).(k - 1) *. mu.(i).(k))
      done
    in
    let k = ref 1 in
    while !k < n do
      red !k (!k - 1);
      if b.(!k) < (delta -. (mu.(!k).(!k - 1) *. mu.(!k).(!k - 1))) *. b.(!k - 1) then begin
        swap !k;
        k := max 1 (!k - 1)
      end
      else begin
        for l = !k - 2 downto 0 do
          red !k l
        done;
        incr k
      end
    done
  end

let is_reduced basis =
  let n = Array.length basis in
  if n <= 1 then true
  else begin
    let g = gso basis in
    let ok = ref true in
    for k = 1 to n - 1 do
      for j = 0 to k - 1 do
        if Float.abs g.mu.(k).(j) > 0.5 +. 1e-6 then ok := false
      done;
      if g.b_star_sq.(k) < ((delta -. 0.01 -. (g.mu.(k).(k - 1) *. g.mu.(k).(k - 1))) *. g.b_star_sq.(k - 1)) -. 1e-6
      then ok := false
    done;
    !ok
  end
