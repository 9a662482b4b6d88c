(* Little-endian arrays of 31-bit limbs, no leading zeros. *)

type t = int array

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1
let zero : t = [||]
let one : t = [| 1 |]
let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int x =
  if x < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs x acc = if x = 0 then List.rev acc else limbs (x lsr base_bits) ((x land mask) :: acc) in
  Array.of_list (limbs x [])

let to_int_opt a =
  (* A native int holds at most 62 bits: two limbs. *)
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | _ -> None

let to_int a = match to_int_opt a with Some x -> x | None -> failwith "Bignum.to_int: overflow"

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        (* a.(i)*b.(j) < 2^62, plus two 31-bit addends: still < 2^63. *)
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s land mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize r
  end

let bits a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec bl acc x = if x = 0 then acc else bl (acc + 1) (x lsr 1) in
    ((n - 1) * base_bits) + bl 0 top
  end

let shift_left a k =
  if k < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a then zero
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Bignum.shift_right";
  let limb_shift = k / base_bits and bit_shift = k mod base_bits in
  let la = Array.length a in
  if limb_shift >= la then zero
  else begin
    let n = la - limb_shift in
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = a.(i + limb_shift) lsr bit_shift in
      let hi = if bit_shift > 0 && i + limb_shift + 1 < la then (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask else 0 in
      r.(i) <- lo lor hi
    done;
    normalize r
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    (* Binary long division: O(bits a) shift-subtract steps. *)
    let shift = bits a - bits b in
    let q = Array.make ((shift / base_bits) + 1) 0 in
    let r = ref a in
    for i = shift downto 0 do
      let bi = shift_left b i in
      if compare !r bi >= 0 then begin
        r := sub !r bi;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (normalize q, !r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mod_int a m =
  if m <= 0 then invalid_arg "Bignum.mod_int";
  (* Horner over limbs; base mod m folded in with word arithmetic.
     (r * base + limb) stays below 2^62 because r < m < 2^31 guard. *)
  if m < 1 lsl 31 then begin
    let r = ref 0 in
    for i = Array.length a - 1 downto 0 do
      r := (((!r lsl base_bits) lor a.(i)) mod m)
    done;
    !r
  end
  else to_int (rem a (of_int m))

let round_div a b = div (add a (shift_right b 1)) b

let of_string s =
  if s = "" then invalid_arg "Bignum.of_string: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_string: non-digit";
      r := add (mul !r (of_int 10)) (of_int (Char.code c - Char.code '0')))
    s;
  !r

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let ten = of_int 10 in
    let r = ref a in
    while not (is_zero !r) do
      let q, m = divmod !r ten in
      Buffer.add_char buf (Char.chr (Char.code '0' + to_int m));
      r := q
    done;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

let log2 a =
  let b = bits a in
  if b = 0 then neg_infinity
  else if b <= 53 then Float.of_int (to_int a) |> Float.log2
  else begin
    (* Keep the top 53 bits for the mantissa. *)
    let top = shift_right a (b - 53) in
    Float.log2 (Float.of_int (to_int top)) +. Float.of_int (b - 53)
  end
