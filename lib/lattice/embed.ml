type instance = {
  q : int;
  a : int array array;
  b : int array;
}

let negacyclic_matrix ~q p =
  let n = Array.length p in
  let md = Mathkit.Modular.modulus q in
  Array.init n (fun j ->
      Array.init n (fun i ->
          (* coefficient j of p * u picks up p[(j - i) mod n], negated
             on wraparound (x^n = -1) *)
          let d = j - i in
          if d >= 0 then p.(d) else Mathkit.Modular.neg md p.(d + n)))

let kannan_basis inst =
  let m = Array.length inst.b in
  let n = if m = 0 then 0 else Array.length inst.a.(0) in
  let dim = m + n + 1 in
  let basis = Array.make_matrix dim dim 0 in
  for j = 0 to m - 1 do
    basis.(j).(j) <- inst.q
  done;
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      basis.(m + i).(j) <- inst.a.(j).(i)
    done;
    basis.(m + i).(m + i) <- 1
  done;
  for j = 0 to m - 1 do
    basis.(dim - 1).(j) <- inst.b.(j)
  done;
  basis.(dim - 1).(dim - 1) <- 1;
  basis

let eliminate_perfect inst ~known =
  let m = Array.length inst.b in
  let n = if m = 0 then 0 else Array.length inst.a.(0) in
  let md = Mathkit.Modular.modulus inst.q in
  let a = Array.map Array.copy inst.a in
  let b = Array.copy inst.b in
  let row_alive = Array.make m true and col_alive = Array.make n true in
  List.iter
    (fun (j, ej) ->
      if j < 0 || j >= m then invalid_arg "Embed.eliminate_perfect: sample index out of range";
      if not row_alive.(j) then invalid_arg "Embed.eliminate_perfect: duplicate sample";
      (* exact equation: sum_i a.(j).(i) s_i = b_j - e_j (mod q) *)
      let rhs = Mathkit.Modular.sub md b.(j) (Mathkit.Modular.reduce md ej) in
      (* pick an invertible pivot column *)
      let pivot = ref (-1) in
      for i = n - 1 downto 0 do
        if col_alive.(i) && a.(j).(i) <> 0 then
          match Mathkit.Modular.inv md a.(j).(i) with
          | _ -> pivot := i
          | exception Invalid_argument _ -> ()
      done;
      if !pivot < 0 then invalid_arg "Embed.eliminate_perfect: no invertible pivot";
      let i = !pivot in
      let inv_p = Mathkit.Modular.inv md a.(j).(i) in
      for j' = 0 to m - 1 do
        if j' <> j && row_alive.(j') && a.(j').(i) <> 0 then begin
          let f = Mathkit.Modular.mul md a.(j').(i) inv_p in
          for i' = 0 to n - 1 do
            a.(j').(i') <- Mathkit.Modular.sub md a.(j').(i') (Mathkit.Modular.mul md f a.(j).(i'))
          done;
          b.(j') <- Mathkit.Modular.sub md b.(j') (Mathkit.Modular.mul md f rhs)
        end
      done;
      row_alive.(j) <- false;
      col_alive.(i) <- false)
    known;
  let cols = Array.to_list (Array.init n (fun i -> i)) |> List.filter (fun i -> col_alive.(i)) in
  let rows = Array.to_list (Array.init m (fun j -> j)) |> List.filter (fun j -> row_alive.(j)) in
  {
    q = inst.q;
    a = Array.of_list (List.map (fun j -> Array.of_list (List.map (fun i -> a.(j).(i)) cols)) rows);
    b = Array.of_list (List.map (fun j -> b.(j)) rows);
  }

type solution = { secret : int array; error : int array }

let verify inst s e =
  let md = Mathkit.Modular.modulus inst.q in
  let m = Array.length inst.b in
  let n = Array.length s in
  let ok = ref true in
  for j = 0 to m - 1 do
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := Mathkit.Modular.add md !acc (Mathkit.Modular.mul md inst.a.(j).(i) (Mathkit.Modular.reduce md s.(i)))
    done;
    if Mathkit.Modular.add md !acc (Mathkit.Modular.reduce md e.(j)) <> inst.b.(j) then ok := false
  done;
  !ok

let solve inst =
  let m = Array.length inst.b in
  let n = if m = 0 then 0 else Array.length inst.a.(0) in
  if m = 0 || n = 0 then None
  else begin
    let basis = kannan_basis inst in
    Bkz.reduce ~block_size:12 basis;
    let dim = m + n + 1 in
    let candidate row =
      let last = row.(dim - 1) in
      if abs last <> 1 then None
      else begin
        let sgn = -last in
        (* row = sgn * (-e, s, -1) *)
        let secret = Array.init n (fun i -> sgn * row.(m + i)) in
        let error = Array.init m (fun j -> -sgn * row.(j)) in
        if Array.for_all (fun si -> abs si <= 1) secret && verify inst secret error then
          Some { secret; error }
        else None
      end
    in
    let found = ref None in
    Array.iter (fun row -> if !found = None then found := candidate row) basis;
    !found
  end
