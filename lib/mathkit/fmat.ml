(* Flat row-major Float64 matrices over the Fvec buffer type: the
   dense-kernel companion to Fvec, used where Matrix's boxed
   float-array-of-rows layout costs a pointer chase per row.  The
   quadratic form replicates Matrix.mul_vec/Matrix.dot accumulation
   order exactly, so switching a scoring path to Fmat is bit-invisible. *)

type t = { data : Fvec.buffer; m_rows : int; m_cols : int }

let rows t = t.m_rows
let cols t = t.m_cols

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Fmat.create: negative dimension";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  Bigarray.Array1.fill data 0.0;
  { data; m_rows = rows; m_cols = cols }

let get t i j =
  if i < 0 || i >= t.m_rows || j < 0 || j >= t.m_cols then invalid_arg "Fmat.get: index out of bounds";
  Fvec.uget t.data ((i * t.m_cols) + j)

let set t i j v =
  if i < 0 || i >= t.m_rows || j < 0 || j >= t.m_cols then invalid_arg "Fmat.set: index out of bounds";
  Fvec.uset t.data ((i * t.m_cols) + j) v

let of_matrix m =
  let r = Matrix.rows m and c = Matrix.cols m in
  let t = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      Fvec.uset t.data ((i * c) + j) (Matrix.get m i j)
    done
  done;
  t

let to_matrix t =
  let m = Matrix.create t.m_rows t.m_cols in
  for i = 0 to t.m_rows - 1 do
    for j = 0 to t.m_cols - 1 do
      Matrix.set m i j (Fvec.uget t.data ((i * t.m_cols) + j))
    done
  done;
  m

(* out <- t * v, each out_i accumulated j-ascending like Matrix.mul_vec. *)
let mul_vec_into t v ~out =
  if Fvec.length v <> t.m_cols then invalid_arg "Fmat.mul_vec_into: dimension mismatch";
  if Fvec.length out <> t.m_rows then invalid_arg "Fmat.mul_vec_into: output dimension mismatch";
  let vbuf = Fvec.buffer v and voff = Fvec.offset v and vstr = Fvec.stride v in
  Fvec.check_range vbuf ~off:voff ~stride:vstr ~len:t.m_cols "Fmat.mul_vec_into";
  for i = 0 to t.m_rows - 1 do
    let acc = ref 0.0 in
    let base = i * t.m_cols in
    let vi = ref voff in
    for j = 0 to t.m_cols - 1 do
      acc := !acc +. (Fvec.uget t.data (base + j) *. Fvec.uget vbuf !vi);
      vi := !vi + vstr
    done;
    Fvec.set out i !acc
  done

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
