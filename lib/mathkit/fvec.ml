(* Bigarray-backed float vectors: the unboxed numeric substrate of the
   attack's hot path.  A [t] is a strided view into a Float64 c_layout
   buffer, so window extraction and POI gathering can alias one trace
   buffer instead of copying per window.

   Every kernel validates its bounds once up front and then runs an
   unchecked inner loop.  Kernel arithmetic (accumulation order,
   two-pass variance, strict argmax) mirrors the historical
   float-array implementations in Stats/Matrix bit for bit — the
   equivalence properties in test_mathkit pin this. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { buf : buffer; off : int; len : int; stride : int }

(* Unchecked access for callers that validated the index themselves:
   [get]/[set] below, and sibling kernels (see Fmat) over their own
   flat buffers. *)
let uget (b : buffer) i =
  Bigarray.Array1.unsafe_get b i (* srclint: allow unsafe-index callers validate the index before the call *)

let uset (b : buffer) i v =
  Bigarray.Array1.unsafe_set b i v (* srclint: allow unsafe-index callers validate the index before the call *)

(* Up-front range validation for kernels that run raw unchecked loops
   over a strided view.  Without flambda a per-element [uget] call
   cannot inline across modules (and boxes its float result), so the
   hot loops apply the Bigarray primitives directly and call this once
   before entering: O(1) per kernel call. *)
let check_range (b : buffer) ~off ~stride ~len name =
  if len > 0 then begin
    let last = off + ((len - 1) * stride) in
    let lo = min off last and hi = max off last in
    if lo < 0 || hi >= Bigarray.Array1.dim b then invalid_arg (name ^ ": view range escapes the buffer")
  end

let length t = t.len
let buffer t = t.buf
let offset t = t.off
let stride t = t.stride

let create n =
  if n < 0 then invalid_arg "Fvec.create: negative length";
  let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill buf 0.0;
  { buf; off = 0; len = n; stride = 1 }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Fvec.get: index out of bounds";
  uget t.buf (t.off + (i * t.stride))

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Fvec.set: index out of bounds";
  uset t.buf (t.off + (i * t.stride)) v

(* The kernels below run raw Bigarray primitives after one up-front
   [check_range]: a per-element [uget] is a real call without flambda
   (boxing every float it returns), which tripled the hot-path cost
   when these loops first went through it. *)

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
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.to_array";
  let out = Array.make t.len 0.0 in
  let idx = ref t.off in
  for i = 0 to t.len - 1 do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above, i the fresh array *)
    Array.unsafe_set out i (Bigarray.Array1.unsafe_get t.buf !idx);
    idx := !idx + t.stride
  done;
  out

let blit_from_array xs t =
  if Array.length xs <> t.len then invalid_arg "Fvec.blit_from_array: length mismatch";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.blit_from_array";
  let idx = ref t.off in
  for i = 0 to t.len - 1 do
    (* srclint: allow unsafe-index i is bounded by the length equality just checked *)
    Bigarray.Array1.unsafe_set t.buf !idx (Array.unsafe_get xs i);
    idx := !idx + t.stride
  done

let fill t v =
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.fill";
  let idx = ref t.off in
  for _ = 1 to t.len do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    Bigarray.Array1.unsafe_set t.buf !idx v;
    idx := !idx + t.stride
  done

let blit ~src ~dst =
  if src.len <> dst.len then invalid_arg "Fvec.blit: length mismatch";
  check_range src.buf ~off:src.off ~stride:src.stride ~len:src.len "Fvec.blit";
  check_range dst.buf ~off:dst.off ~stride:dst.stride ~len:dst.len "Fvec.blit";
  let is = ref src.off and id = ref dst.off in
  for _ = 1 to src.len do
    (* srclint: allow unsafe-index both view ranges check_range'd above *)
    Bigarray.Array1.unsafe_set dst.buf !id (Bigarray.Array1.unsafe_get src.buf !is);
    is := !is + src.stride;
    id := !id + dst.stride
  done

let copy t =
  let out = create t.len in
  blit ~src:t ~dst:out;
  out

(* Views share the underlying buffer: no copy, writes are visible to
   every alias.  [sub] keeps the parent's stride; [strided] composes. *)
let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Fvec.sub: view out of bounds";
  { t with off = t.off + (pos * t.stride); len }

let strided t ~pos ~len ~stride =
  if stride <= 0 then invalid_arg "Fvec.strided: stride must be positive";
  if pos < 0 || len < 0 || (len > 0 && pos + ((len - 1) * stride) >= t.len) then
    invalid_arg "Fvec.strided: view out of bounds";
  { buf = t.buf; off = t.off + (pos * t.stride); len; stride = t.stride * stride }

(* --- kernels -------------------------------------------------------------- *)

let iteri f t =
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.iteri";
  let idx = ref t.off in
  for i = 0 to t.len - 1 do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    f i (Bigarray.Array1.unsafe_get t.buf !idx);
    idx := !idx + t.stride
  done

(* Ascending left fold, exactly [Array.fold_left ( +. ) 0.0]. *)
let sum t =
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.sum";
  let acc = ref 0.0 in
  let idx = ref t.off in
  for _ = 1 to t.len do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    acc := !acc +. Bigarray.Array1.unsafe_get t.buf !idx;
    idx := !idx + t.stride
  done;
  !acc

let mean t =
  if t.len = 0 then invalid_arg "Fvec.mean: empty";
  sum t /. float_of_int t.len

(* Two-pass sample variance, mirroring Stats.variance_a. *)
let variance t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    let idx = ref t.off in
    for _ = 1 to t.len do
      (* srclint: allow unsafe-index idx walks the view range check_range'd inside sum *)
      let d = Bigarray.Array1.unsafe_get t.buf !idx -. m in
      acc := !acc +. (d *. d);
      idx := !idx + t.stride
    done;
    !acc /. float_of_int (t.len - 1)
  end

let dot a b =
  if a.len <> b.len then invalid_arg "Fvec.dot: length mismatch";
  check_range a.buf ~off:a.off ~stride:a.stride ~len:a.len "Fvec.dot";
  check_range b.buf ~off:b.off ~stride:b.stride ~len:b.len "Fvec.dot";
  let acc = ref 0.0 in
  let ia = ref a.off and ib = ref b.off in
  for _ = 1 to a.len do
    (* srclint: allow unsafe-index both view ranges check_range'd above *)
    acc := !acc +. (Bigarray.Array1.unsafe_get a.buf !ia *. Bigarray.Array1.unsafe_get b.buf !ib);
    ia := !ia + a.stride;
    ib := !ib + b.stride
  done;
  !acc

(* y <- y + a*x *)
let axpy a ~x ~y =
  if x.len <> y.len then invalid_arg "Fvec.axpy: length mismatch";
  check_range x.buf ~off:x.off ~stride:x.stride ~len:x.len "Fvec.axpy";
  check_range y.buf ~off:y.off ~stride:y.stride ~len:y.len "Fvec.axpy";
  let ix = ref x.off and iy = ref y.off in
  for _ = 1 to x.len do
    (* srclint: allow unsafe-index both view ranges check_range'd above *)
    let xv = Bigarray.Array1.unsafe_get x.buf !ix in
    (* srclint: allow unsafe-index both view ranges check_range'd above *)
    Bigarray.Array1.unsafe_set y.buf !iy (Bigarray.Array1.unsafe_get y.buf !iy +. (a *. xv));
    ix := !ix + x.stride;
    iy := !iy + y.stride
  done

let sqdist a b =
  if a.len <> b.len then invalid_arg "Fvec.sqdist: length mismatch";
  check_range a.buf ~off:a.off ~stride:a.stride ~len:a.len "Fvec.sqdist";
  check_range b.buf ~off:b.off ~stride:b.stride ~len:b.len "Fvec.sqdist";
  let acc = ref 0.0 in
  let ia = ref a.off and ib = ref b.off in
  for _ = 1 to a.len do
    (* srclint: allow unsafe-index both view ranges check_range'd above *)
    let d = Bigarray.Array1.unsafe_get a.buf !ia -. Bigarray.Array1.unsafe_get b.buf !ib in
    acc := !acc +. (d *. d);
    ia := !ia + a.stride;
    ib := !ib + b.stride
  done;
  !acc

(* Strictly-greater first-winner scan, mirroring Stats.argmax. *)
let argmax t =
  if t.len = 0 then invalid_arg "Fvec.argmax: empty";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.argmax";
  (* srclint: allow unsafe-index the view range is check_range'd above *)
  let best = ref 0 and best_v = ref (Bigarray.Array1.unsafe_get t.buf t.off) in
  let idx = ref (t.off + t.stride) in
  for i = 1 to t.len - 1 do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    let v = Bigarray.Array1.unsafe_get t.buf !idx in
    if v > !best_v then begin
      best := i;
      best_v := v
    end;
    idx := !idx + t.stride
  done;
  !best

let argmin t =
  if t.len = 0 then invalid_arg "Fvec.argmin: empty";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.argmin";
  (* srclint: allow unsafe-index the view range is check_range'd above *)
  let best = ref 0 and best_v = ref (Bigarray.Array1.unsafe_get t.buf t.off) in
  let idx = ref (t.off + t.stride) in
  for i = 1 to t.len - 1 do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    let v = Bigarray.Array1.unsafe_get t.buf !idx in
    if v < !best_v then begin
      best := i;
      best_v := v
    end;
    idx := !idx + t.stride
  done;
  !best

(* Float.min/Float.max folds seeded with the first element, exactly
   [Array.fold_left Float.min xs.(0) xs] (NaN-propagating). *)
let minimum t =
  if t.len = 0 then invalid_arg "Fvec.minimum: empty";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.minimum";
  (* srclint: allow unsafe-index the view range is check_range'd above *)
  let acc = ref (Bigarray.Array1.unsafe_get t.buf t.off) in
  let idx = ref t.off in
  for _ = 1 to t.len do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    acc := Float.min !acc (Bigarray.Array1.unsafe_get t.buf !idx);
    idx := !idx + t.stride
  done;
  !acc

let maximum t =
  if t.len = 0 then invalid_arg "Fvec.maximum: empty";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.maximum";
  (* srclint: allow unsafe-index the view range is check_range'd above *)
  let acc = ref (Bigarray.Array1.unsafe_get t.buf t.off) in
  let idx = ref t.off in
  for _ = 1 to t.len do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    acc := Float.max !acc (Bigarray.Array1.unsafe_get t.buf !idx);
    idx := !idx + t.stride
  done;
  !acc

(* [minimum] and [maximum] in one traversal.  Each accumulator runs
   the exact Float.min / Float.max chain of the single-purpose kernel
   over the same element order, so both components are bit-identical
   to the separate calls — the fusion only saves a pass (Otsu's
   thresholding wants both ends of the range).

   A strict [<] / [>] settles the common case without the Float.min /
   Float.max calls (their sign_bit test goes through Int64 boxing);
   elements that compare neither above nor below an accumulator — a
   NaN, or an exact tie where +0.0 / -0.0 could pick a different
   bit pattern — fall back to the real Float.min / Float.max, so every
   accumulator still holds exactly the value the plain fold would. *)
let minmax t =
  if t.len = 0 then invalid_arg "Fvec.minmax: empty";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.minmax";
  (* srclint: allow unsafe-index the view range is check_range'd above *)
  let first = Bigarray.Array1.unsafe_get t.buf t.off in
  let mn = ref first and mx = ref first in
  let idx = ref t.off in
  for _ = 1 to t.len do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    let v = Bigarray.Array1.unsafe_get t.buf !idx in
    if v < !mn then mn := v else if not (v > !mn) then mn := Float.min !mn v;
    if v > !mx then mx := v else if not (v < !mx) then mx := Float.max !mx v;
    idx := !idx + t.stride
  done;
  (!mn, !mx)

(* Mirrors Stats.histogram: same binning arithmetic, same clamping.
   [float_of_int bins] and [hi -. lo] are loop-invariant, and the
   clamp is explicit int branches rather than the polymorphic
   [min]/[max] (a caml_compare call per sample) — same bins. *)
let histogram ~bins ~lo ~hi t =
  if bins <= 0 || hi <= lo then invalid_arg "Fvec.histogram";
  check_range t.buf ~off:t.off ~stride:t.stride ~len:t.len "Fvec.histogram";
  let h = Array.make bins 0 in
  let fbins = float_of_int bins and range = hi -. lo and top = bins - 1 in
  let idx = ref t.off in
  for _ = 1 to t.len do
    (* srclint: allow unsafe-index idx walks the view range check_range'd above *)
    let x = Bigarray.Array1.unsafe_get t.buf !idx in
    if x >= lo && x < hi then begin
      let b = int_of_float (fbins *. (x -. lo) /. range) in
      let b = if b < 0 then 0 else if b > top then top else b in
      h.(b) <- h.(b) + 1
    end;
    idx := !idx + t.stride
  done;
  h

(* --- explicit-capacity scratch arenas ------------------------------------- *)

(* A bump allocator over one buffer: a stage sizes its scratch once
   (the sizes are all profile-derived constants), carves persistent
   views out of it, and reuses them for every window of every trace.
   Overflow is a programming error and raises — the arena never grows,
   so a domain's scratch footprint is exact and allocation-free after
   setup.  Arenas are single-owner: share one per domain, never across
   domains. *)
module Scratch = struct
  type vec = t

  type t = { sbuf : buffer; capacity : int; mutable used : int }

  let create capacity =
    if capacity < 0 then invalid_arg "Fvec.Scratch.create: negative capacity";
    let sbuf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout capacity in
    Bigarray.Array1.fill sbuf 0.0;
    { sbuf; capacity; used = 0 }

  let capacity s = s.capacity
  let used s = s.used
  let reset s = s.used <- 0

  let alloc s n : vec =
    if n < 0 then invalid_arg "Fvec.Scratch.alloc: negative length";
    if s.used + n > s.capacity then
      invalid_arg
        (Printf.sprintf "Fvec.Scratch.alloc: %d floats requested but only %d of %d remain" n
           (s.capacity - s.used) s.capacity);
    let off = s.used in
    s.used <- s.used + n;
    { buf = s.sbuf; off; len = n; stride = 1 }
end
