exception Singular

let lu a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Linalg.lu: not square";
  let m = Matrix.copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* partial pivoting *)
    let pivot = ref k and best = ref (Float.abs (Matrix.get m k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Matrix.get m i k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best = 0.0 || Float.is_nan !best then raise Singular;
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let t = Matrix.get m k j in
        Matrix.set m k j (Matrix.get m !pivot j);
        Matrix.set m !pivot j t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- t
    end;
    let mkk = Matrix.get m k k in
    for i = k + 1 to n - 1 do
      let f = Matrix.get m i k /. mkk in
      Matrix.set m i k f;
      if f <> 0.0 then
        for j = k + 1 to n - 1 do
          Matrix.set m i j (Matrix.get m i j -. (f *. Matrix.get m k j))
        done
    done
  done;
  (m, perm)

let lu_solve (m, perm) b =
  let n = Matrix.rows m in
  let y = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution with unit lower factor *)
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (Matrix.get m i j *. y.(j))
    done
  done;
  (* back substitution with upper factor *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (Matrix.get m i j *. y.(j))
    done;
    y.(i) <- y.(i) /. Matrix.get m i i
  done;
  y

(* A^-1 column by column: solve A x = e_j for each unit vector. *)
let inverse a =
  let f = lu a in
  let n = Matrix.rows a in
  let out = Matrix.create n n in
  for j = 0 to n - 1 do
    let x = lu_solve f (Array.init n (fun i -> if i = j then 1.0 else 0.0)) in
    for i = 0 to n - 1 do
      Matrix.set out i j x.(i)
    done
  done;
  out

let logdet a =
  let m, _ = lu a in
  let n = Matrix.rows a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = Float.abs (Matrix.get m i i) in
    if d = 0.0 then raise Singular;
    acc := !acc +. log d
  done;
  !acc

let regularize a eps =
  let n = Matrix.rows a in
  Matrix.init n (Matrix.cols a) (fun i j -> Matrix.get a i j +. if i = j then eps else 0.0)

(* Cyclic Jacobi: repeatedly zero the largest off-diagonal entry with a
   Givens rotation.  Converges quadratically for symmetric input; the
   dimensions PCA uses here (tens to a few hundred) are comfortable. *)
let jacobi_eigen a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Linalg.jacobi_eigen: not square";
  let m = Matrix.copy a in
  let v = Matrix.identity n in
  let off_diag_norm () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        acc := !acc +. (Matrix.get m i j *. Matrix.get m i j)
      done
    done;
    sqrt !acc
  in
  let sweep = ref 0 in
  let scale = Float.max 1e-300 (Matrix.frobenius a) in
  while off_diag_norm () > 1e-12 *. scale && !sweep < 64 do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Matrix.get m p q in
        if Float.abs apq > 1e-300 then begin
          let app = Matrix.get m p p and aqq = Matrix.get m q q in
          let theta = (aqq -. app) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          (* rotate rows/columns p and q of m, accumulate into v *)
          for k = 0 to n - 1 do
            let mkp = Matrix.get m k p and mkq = Matrix.get m k q in
            Matrix.set m k p ((c *. mkp) -. (s *. mkq));
            Matrix.set m k q ((s *. mkp) +. (c *. mkq))
          done;
          for k = 0 to n - 1 do
            let mpk = Matrix.get m p k and mqk = Matrix.get m q k in
            Matrix.set m p k ((c *. mpk) -. (s *. mqk));
            Matrix.set m q k ((s *. mpk) +. (c *. mqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Matrix.get v k p and vkq = Matrix.get v k q in
            Matrix.set v k p ((c *. vkp) -. (s *. vkq));
            Matrix.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done
  done;
  let eigenvalues = Array.init n (fun i -> Matrix.get m i i) in
  (* sort by decreasing eigenvalue, permuting the eigenvector columns *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare eigenvalues.(j) eigenvalues.(i)) order;
  let sorted_values = Array.map (fun i -> eigenvalues.(i)) order in
  let sorted_vectors = Matrix.init n n (fun r c -> Matrix.get v r order.(c)) in
  (sorted_values, sorted_vectors)

let principal_components a ~k =
  let n = Matrix.rows a in
  if k <= 0 || k > n then invalid_arg "Linalg.principal_components: k out of range";
  let _, vectors = jacobi_eigen a in
  Matrix.init n k (fun r c -> Matrix.get vectors r c)
