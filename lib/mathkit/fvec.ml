(* Bigarray-backed float vectors: the unboxed numeric substrate of the
   attack's hot path.  A [t] is a contiguous view into a Float64
   c_layout buffer, so window extraction and POI gathering can alias
   one trace buffer instead of copying per window.

   Every kernel validates its bounds once up front and then runs an
   unchecked inner loop. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { buf : buffer; off : int; len : int }

(* Up-front range validation for kernels that run raw unchecked loops
   over a view.  Without flambda a per-element accessor call cannot
   inline across modules (and boxes its float result), so the hot
   loops apply the Bigarray primitives directly and call this once
   before entering: O(1) per kernel call. *)
let check_range (b : buffer) ~off ~len name =
  if len > 0 && (off < 0 || off + len > Bigarray.Array1.dim b) then
    invalid_arg (name ^ ": view range escapes the buffer")

let length t = t.len
let buffer t = t.buf
let offset t = t.off

let create n =
  if n < 0 then invalid_arg "Fvec.create: negative length";
  let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill buf 0.0;
  { buf; off = 0; len = n }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get: index out of bounds";
  Bigarray.Array1.get t.buf (t.off + i)

let init n f =
  let t = create n in
  for i = 0 to n - 1 do
    (* srclint: allow unsafe-index i is bounded by the fresh buffer's length *)
    Bigarray.Array1.unsafe_set t.buf i (f i)
  done;
  t

let of_array xs =
  let n = Array.length xs in
  let t = create n in
  for i = 0 to n - 1 do
    (* srclint: allow unsafe-index i is bounded by the array length just read *)
    Bigarray.Array1.unsafe_set t.buf i (Array.unsafe_get xs i)
  done;
  t

let to_array t =
  check_range t.buf ~off:t.off ~len:t.len "Fvec.to_array";
  let out = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    (* srclint: allow unsafe-index off + i stays in the view range check_range'd above, i in the fresh array *)
    Array.unsafe_set out i (Bigarray.Array1.unsafe_get t.buf (t.off + i))
  done;
  out

let blit_from_array xs t =
  if Array.length xs <> t.len then invalid_arg "Fvec.blit_from_array: length mismatch";
  check_range t.buf ~off:t.off ~len:t.len "Fvec.blit_from_array";
  for i = 0 to t.len - 1 do
    (* srclint: allow unsafe-index i is bounded by the length equality just checked *)
    Bigarray.Array1.unsafe_set t.buf (t.off + i) (Array.unsafe_get xs i)
  done

let copy t =
  let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout t.len in
  Bigarray.Array1.blit (Bigarray.Array1.sub t.buf t.off t.len) buf;
  { buf; off = 0; len = t.len }

(* A view shares the underlying buffer: no copy, writes are visible to
   every alias. *)
let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Fvec.sub: view out of bounds";
  { t with off = t.off + pos; len }

(* [Array.fold_left Float.min xs.(0) xs] and its Float.max twin in one
   traversal (Otsu's thresholding wants both ends of the range),
   NaN-propagating like the folds.

   A strict [<] / [>] settles the common case without the Float.min /
   Float.max calls (their sign_bit test goes through Int64 boxing);
   elements that compare neither above nor below an accumulator — a
   NaN, or an exact tie where +0.0 / -0.0 could pick a different
   bit pattern — fall back to the real Float.min / Float.max, so every
   accumulator still holds exactly the value the plain fold would. *)
let minmax t =
  if t.len = 0 then invalid_arg "Fvec.minmax: empty";
  check_range t.buf ~off:t.off ~len:t.len "Fvec.minmax";
  (* srclint: allow unsafe-index the view range is check_range'd above *)
  let first = Bigarray.Array1.unsafe_get t.buf t.off in
  let mn = ref first and mx = ref first in
  for i = t.off to t.off + t.len - 1 do
    (* srclint: allow unsafe-index i walks the view range check_range'd above *)
    let v = Bigarray.Array1.unsafe_get t.buf i in
    if v < !mn then mn := v else if not (v > !mn) then mn := Float.min !mn v;
    if v > !mx then mx := v else if not (v < !mx) then mx := Float.max !mx v
  done;
  (!mn, !mx)

(* [bins] equal-width bins over [lo, hi); samples outside are not
   counted.  [float_of_int bins] and [hi -. lo] are loop-invariant, and
   the clamp is explicit int branches rather than the polymorphic
   [min]/[max] (a caml_compare call per sample). *)
let histogram ~bins ~lo ~hi t =
  if bins <= 0 || hi <= lo then invalid_arg "Fvec.histogram";
  check_range t.buf ~off:t.off ~len:t.len "Fvec.histogram";
  let h = Array.make bins 0 in
  let fbins = float_of_int bins and range = hi -. lo and top = bins - 1 in
  for i = t.off to t.off + t.len - 1 do
    (* srclint: allow unsafe-index i walks the view range check_range'd above *)
    let x = Bigarray.Array1.unsafe_get t.buf i in
    if x >= lo && x < hi then begin
      let b = int_of_float (fbins *. (x -. lo) /. range) in
      let b = if b < 0 then 0 else if b > top then top else b in
      h.(b) <- h.(b) + 1
    end
  done;
  h
