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
      Fvec.uset data ((i * c) + j) (Matrix.get m i j)
    done
  done;
  { data; m_rows = r; m_cols = c }

let to_arrays t = Array.init t.m_rows (fun i -> Array.init t.m_cols (fun j -> Fvec.uget t.data ((i * t.m_cols) + j)))

(* d^T t d, fused but in the exact accumulation order of
   [Matrix.dot d (Matrix.mul_vec t d)]: row sums j-ascending, outer
   product i-ascending.  This is the Mahalanobis inner loop. *)
let quadratic_form t d =
  if t.m_rows <> t.m_cols then invalid_arg "Fmat.quadratic_form: matrix not square";
  if Fvec.length d <> t.m_cols then invalid_arg "Fmat.quadratic_form: dimension mismatch";
  let dbuf = Fvec.buffer d and doff = Fvec.offset d and dstr = Fvec.stride d in
  Fvec.check_range dbuf ~off:doff ~stride:dstr ~len:(Fvec.length d) "Fmat.quadratic_form";
  let n = t.m_cols in
  let total = ref 0.0 in
  if dstr = 1 then
    (* Contiguous [d] — the scoring scratch always is: same loops with
       the stride walk folded into the induction variable. *)
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      let base = i * n in
      for j = 0 to n - 1 do
        (* srclint: allow unsafe-index both ranges validated by the dimension checks and check_range above *)
        acc := !acc +. (Bigarray.Array1.unsafe_get t.data (base + j) *. Bigarray.Array1.unsafe_get dbuf (doff + j))
      done;
      (* srclint: allow unsafe-index i stays inside the range validated above *)
      total := !total +. (Bigarray.Array1.unsafe_get dbuf (doff + i) *. !acc)
    done
  else begin
    let di = ref doff in
    for i = 0 to n - 1 do
      let acc = ref 0.0 in
      let base = i * n in
      let dj = ref doff in
      for j = 0 to n - 1 do
        (* srclint: allow unsafe-index both ranges validated by the dimension checks and check_range above *)
        acc := !acc +. (Bigarray.Array1.unsafe_get t.data (base + j) *. Bigarray.Array1.unsafe_get dbuf !dj);
        dj := !dj + dstr
      done;
      (* srclint: allow unsafe-index di stays inside the range validated above *)
      total := !total +. (Bigarray.Array1.unsafe_get dbuf !di *. !acc);
      di := !di + dstr
    done
  end;
  !total
