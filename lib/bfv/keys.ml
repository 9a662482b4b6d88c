type secret_key = { s : Rq.t }
type public_key = { p0 : Rq.t; p1 : Rq.t }
type ciphertext = { parts : Rq.t array }
type plaintext = { coeffs : int array }

let ciphertext_size c = Array.length c.parts

let plaintext_of_coeffs params coeffs =
  if Array.length coeffs <> params.Params.n then invalid_arg "Keys.plaintext_of_coeffs: wrong degree";
  Array.iter
    (fun c -> if c < 0 || c >= params.Params.plain_modulus then invalid_arg "Keys.plaintext_of_coeffs: coefficient out of range")
    coeffs;
  { coeffs = Array.copy coeffs }

let plaintext_equal a b = a.coeffs = b.coeffs
