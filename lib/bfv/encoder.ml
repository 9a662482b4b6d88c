let encode_int params v =
  let t = params.Params.plain_modulus in
  let coeffs = Array.make params.Params.n 0 in
  let negative = v < 0 in
  let v = abs v in
  if params.Params.n < 62 && v >= 1 lsl params.Params.n then
    invalid_arg "Encoder.encode_int: value too large for the ring degree";
  let rec go i v =
    if v > 0 then begin
      if i >= params.Params.n then invalid_arg "Encoder.encode_int: value too large for the ring degree";
      (* digit b, negated digits encode negative numbers: t - 1 = -1 *)
      if v land 1 = 1 then coeffs.(i) <- (if negative then t - 1 else 1);
      go (i + 1) (v lsr 1)
    end
  in
  go 0 v;
  Keys.plaintext_of_coeffs params coeffs

let decode_int params m =
  let t = params.Params.plain_modulus in
  let acc = ref 0 and base = ref 1 in
  Array.iter
    (fun c ->
      let centered = if c > t / 2 then c - t else c in
      acc := !acc + (centered * !base);
      base := !base * 2)
    m.Keys.coeffs;
  !acc

type batch = {
  params : Params.t;
  plan : Mathkit.Ntt.plan;
}

let batch ctx =
  let params = Rq.params ctx in
  let t = params.Params.plain_modulus in
  if Mathkit.Ntt.is_friendly ~q:t ~n:params.Params.n then
    Some { params; plan = Mathkit.Ntt.plan (Mathkit.Modular.modulus t) params.Params.n }
  else None

let batch_slots b = b.params.Params.n

let batch_encode b values =
  if Array.length values <> b.params.Params.n then invalid_arg "Encoder.batch_encode: need one value per slot";
  let md = Mathkit.Ntt.modulus b.plan in
  let slots = Array.map (Mathkit.Modular.reduce md) values in
  (* slots live in the NTT domain; the plaintext is its preimage *)
  Mathkit.Ntt.inverse b.plan slots;
  Keys.plaintext_of_coeffs b.params slots

let batch_decode b m =
  let slots = Array.copy m.Keys.coeffs in
  Mathkit.Ntt.forward b.plan slots;
  slots
