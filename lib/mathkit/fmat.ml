(* Flat row-major Float64 matrices over the Fvec buffer type: the
   dense-kernel companion to Fvec, used where Matrix's boxed
   float-array-of-rows layout costs a pointer chase per row.  The
   quadratic form replicates Matrix.mul_vec/Matrix.dot accumulation
   order exactly, so switching a scoring path to Fmat is bit-invisible. *)

type t = { data : Fvec.buffer; m_rows : int; m_cols : int }

let of_matrix m =
  let r = Matrix.rows m and c = Matrix.cols m in
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (r * c) in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      Bigarray.Array1.set data ((i * c) + j) (Matrix.get m i j)
    done
  done;
  { data; m_rows = r; m_cols = c }

let to_arrays t =
  Array.init t.m_rows (fun i -> Array.init t.m_cols (fun j -> Bigarray.Array1.get t.data ((i * t.m_cols) + j)))

(* d^T t d, fused but in the exact accumulation order of
   [Matrix.dot d (Matrix.mul_vec t d)]: row sums j-ascending, outer
   product i-ascending.  This is the Mahalanobis inner loop. *)
let quadratic_form t d =
  if t.m_rows <> t.m_cols then invalid_arg "Fmat.quadratic_form: matrix not square";
  if Fvec.length d <> t.m_cols then invalid_arg "Fmat.quadratic_form: dimension mismatch";
  let dbuf = Fvec.buffer d and doff = Fvec.offset d in
  Fvec.check_range dbuf ~off:doff ~len:(Fvec.length d) "Fmat.quadratic_form";
  let n = t.m_cols in
  let total = ref 0.0 in
  (* One row sum is a chain of dependent adds, so the rows run four at
     a time: four independent chains share each load of [d.(j)], and
     two columns per step halve the loop overhead.  Every row still
     sums from 0.0 with j ascending (column j before j + 1), and the
     four products join the total in i order, so each add is the one
     the row-at-a-time tail below makes for the leftover rows. *)
  let m = t.data in
  let i = ref 0 in
  while !i + 4 <= n do
    let b0 = !i * n in
    let b1 = b0 + n in
    let b2 = b1 + n in
    let b3 = b2 + n in
    let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
    let j = ref 0 in
    while !j + 2 <= n do
      let j0 = !j in
      (* srclint: allow unsafe-index j0 + 1 < n, inside the range validated by check_range above *)
      let dj = Bigarray.Array1.unsafe_get dbuf (doff + j0) and dk = Bigarray.Array1.unsafe_get dbuf (doff + j0 + 1) in
      (* srclint: allow unsafe-index rows i..i+3 < n and columns j0, j0 + 1 < n lie inside the n*n matrix *)
      a0 := !a0 +. (Bigarray.Array1.unsafe_get m (b0 + j0) *. dj) +. (Bigarray.Array1.unsafe_get m (b0 + j0 + 1) *. dk);
      (* srclint: allow unsafe-index rows i..i+3 < n and columns j0, j0 + 1 < n lie inside the n*n matrix *)
      a1 := !a1 +. (Bigarray.Array1.unsafe_get m (b1 + j0) *. dj) +. (Bigarray.Array1.unsafe_get m (b1 + j0 + 1) *. dk);
      (* srclint: allow unsafe-index rows i..i+3 < n and columns j0, j0 + 1 < n lie inside the n*n matrix *)
      a2 := !a2 +. (Bigarray.Array1.unsafe_get m (b2 + j0) *. dj) +. (Bigarray.Array1.unsafe_get m (b2 + j0 + 1) *. dk);
      (* srclint: allow unsafe-index rows i..i+3 < n and columns j0, j0 + 1 < n lie inside the n*n matrix *)
      a3 := !a3 +. (Bigarray.Array1.unsafe_get m (b3 + j0) *. dj) +. (Bigarray.Array1.unsafe_get m (b3 + j0 + 1) *. dk);
      j := j0 + 2
    done;
    if !j < n then begin
      (* the last column of an odd n *)
      let j0 = !j in
      (* srclint: allow unsafe-index j0 < n, inside the range validated by check_range above *)
      let dj = Bigarray.Array1.unsafe_get dbuf (doff + j0) in
      (* srclint: allow unsafe-index rows i..i+3 < n and column j0 < n lie inside the n*n matrix *)
      a0 := !a0 +. (Bigarray.Array1.unsafe_get m (b0 + j0) *. dj);
      (* srclint: allow unsafe-index rows i..i+3 < n and column j0 < n lie inside the n*n matrix *)
      a1 := !a1 +. (Bigarray.Array1.unsafe_get m (b1 + j0) *. dj);
      (* srclint: allow unsafe-index rows i..i+3 < n and column j0 < n lie inside the n*n matrix *)
      a2 := !a2 +. (Bigarray.Array1.unsafe_get m (b2 + j0) *. dj);
      (* srclint: allow unsafe-index rows i..i+3 < n and column j0 < n lie inside the n*n matrix *)
      a3 := !a3 +. (Bigarray.Array1.unsafe_get m (b3 + j0) *. dj)
    end;
    let di = doff + !i in
    (* srclint: allow unsafe-index di..di+3 are rows i..i+3 < n of the range validated above *)
    total := !total +. (Bigarray.Array1.unsafe_get dbuf di *. !a0);
    (* srclint: allow unsafe-index di..di+3 are rows i..i+3 < n of the range validated above *)
    total := !total +. (Bigarray.Array1.unsafe_get dbuf (di + 1) *. !a1);
    (* srclint: allow unsafe-index di..di+3 are rows i..i+3 < n of the range validated above *)
    total := !total +. (Bigarray.Array1.unsafe_get dbuf (di + 2) *. !a2);
    (* srclint: allow unsafe-index di..di+3 are rows i..i+3 < n of the range validated above *)
    total := !total +. (Bigarray.Array1.unsafe_get dbuf (di + 3) *. !a3);
    i := !i + 4
  done;
  for i = !i to n - 1 do
    let acc = ref 0.0 in
    let base = i * n in
    for j = 0 to n - 1 do
      (* srclint: allow unsafe-index both ranges validated by the dimension checks and check_range above *)
      acc := !acc +. (Bigarray.Array1.unsafe_get m (base + j) *. Bigarray.Array1.unsafe_get dbuf (doff + j))
    done;
    (* srclint: allow unsafe-index i stays inside the range validated above *)
    total := !total +. (Bigarray.Array1.unsafe_get dbuf (doff + i) *. !acc)
  done;
  !total
