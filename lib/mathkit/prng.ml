(* The xoshiro256** state is four 64-bit words s0..s3, stored
   little-endian at byte offsets 0, 8, 16 and 24 of a 32-byte buffer.
   Int64 record fields are boxed: every state write in [bits64] would
   allocate, and synthesis noise and fault injection draw once per
   sample.  [Bytes.get_int64_le]/[set_int64_le] read and write the
   words in place, so a step allocates at most the int64 it returns;
   [float], [bool] and [int64_below] inline [bits64] and consume that
   result unboxed.  DESIGN.md §16.1. *)
type t = Bytes.t

let default_seed = 0x5EA1_DA7E_1234_5678L

let get g i = Bytes.get_int64_le g (8 * i)
let set g i v = Bytes.set_int64_le g (8 * i) v

let of_words s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set g 0 s0;
  set g 1 s1;
  set g 2 s2;
  set g 3 s3;
  g

(* splitmix64: used only to expand the user seed into the 256-bit
   xoshiro state, as recommended by Blackman & Vigna. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ?(seed = default_seed) () =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  (* xoshiro must not be seeded with the all-zero state. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let copy = Bytes.copy

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 1 and s2 = get g 2 and s3 = get g 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 t in
  let s3 = rotl s3 45 in
  set g 0 s0;
  set g 1 s1;
  set g 2 s2;
  set g 3 s3;
  result

let split g = create ~seed:(bits64 g) ()

let int64_below g bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Prng.int64_below: bound <= 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec loop () =
    let r = Int64.shift_right_logical (bits64 g) 1 in
    (* r uniform in [0, 2^63) *)
    let v = Int64.rem r bound in
    (* Accept unless r falls in the truncated final block. *)
    if Int64.compare (Int64.sub r v) (Int64.sub (Int64.sub Int64.max_int bound) 1L) <= 0 then v
    else loop ()
  in
  loop ()

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  Int64.to_int (int64_below g (Int64.of_int bound))

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int g (hi - lo + 1)

let float g =
  (* 53 most-significant bits, scaled to [0,1). *)
  let r = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float r *. 0x1.0p-53

let bool g = Int64.logand (bits64 g) 1L = 1L

let ternary g = int g 3 - 1

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Jump polynomial of xoshiro256**: advances 2^128 steps. *)
let jump_tbl = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun jv ->
      for b = 0 to 63 do
        if Int64.logand jv (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc i (Int64.logxor (get acc i) (get g i))
          done;
        ignore (bits64 g)
      done)
    jump_tbl;
  Bytes.blit acc 0 g 0 32
