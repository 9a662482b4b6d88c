(* The xoshiro256** state is four 64-bit words s0..s3, stored
   little-endian at byte offsets 0, 8, 16 and 24 of a 32-byte buffer.
   Int64 record fields are boxed: every state write in [bits64] would
   allocate, and synthesis noise and fault injection draw once per
   sample.  [Bytes.get_int64_le]/[set_int64_le] read and write the
   words in place, so a step allocates at most the int64 it returns;
   [bits53], [float], [bool] and [int64_below] inline [bits64] and
   consume that result unboxed.  DESIGN.md §16.1. *)
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

let[@inline] bits53 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 11)

(* [bits53] [len] times, with the state in local variables for the
   whole loop and written back once: no call and no state load or store
   per draw.  The step is [bits64]'s, written out again because a
   shared one would box the words it passes. *)
let fill_bits53 g a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Prng.fill_bits53: len out of range";
  let open Int64 in
  let s0 = ref (get g 0) and s1 = ref (get g 1) and s2 = ref (get g 2) and s3 = ref (get g 3) in
  for i = 0 to len - 1 do
    let x0 = !s0 and x1 = !s1 and x2 = !s2 and x3 = !s3 in
    let result = mul (rotl (mul x1 5L) 7) 9L in
    let t = shift_left x1 17 in
    let x2 = logxor x2 x0 in
    let x3 = logxor x3 x1 in
    let x1 = logxor x1 x2 in
    let x0 = logxor x0 x3 in
    s0 := x0;
    s1 := x1;
    s2 := logxor x2 t;
    s3 := rotl x3 45;
    a.(i) <- to_int (shift_right_logical result 11)
  done;
  set g 0 !s0;
  set g 1 !s1;
  set g 2 !s2;
  set g 3 !s3

(* A 53-bit int converts exactly: the bits [Int64.to_float] gives. *)
let float g = float_of_int (bits53 g) *. 0x1p-53

let bool g = Int64.logand (bits64 g) 1L = 1L

let ternary g = int g 3 - 1

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
