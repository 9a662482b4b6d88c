let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Extended gcd: returns (g, s, t) with s*a + t*b = g. *)
let rec egcd a b = if b = 0 then (a, 1, 0) else begin
    let g, s, t = egcd b (a mod b) in
    (g, t, s - (a / b * t))
  end

(* Unimodular completion of a primitive vector (first row = x), by
   induction on length: combine x.(0) with the completed tail through
   a Bezout relation. *)
let rec completion_list = function
  | [] -> invalid_arg "Bkz.unimodular_completion: empty vector"
  | [ x ] ->
      if abs x <> 1 then invalid_arg "Bkz.unimodular_completion: not primitive";
      [ [ x ] ]
  | x0 :: rest ->
      let g_rest = List.fold_left (fun acc v -> gcd acc v) 0 rest in
      if g_rest = 0 then begin
        (* tail is zero: x0 must be +-1; complete with identity tail *)
        if abs x0 <> 1 then invalid_arg "Bkz.unimodular_completion: not primitive";
        let n = List.length rest in
        let first = x0 :: rest in
        let others = List.init n (fun i -> 0 :: List.init n (fun j -> if i = j then 1 else 0)) in
        first :: others
      end
      else begin
        let tail_primitive = List.map (fun v -> v / g_rest) rest in
        let sub = completion_list tail_primitive in
        (* sub : unimodular of size n-1 with first row = tail/g *)
        let g, s, t = egcd x0 g_rest in
        if abs g <> 1 then invalid_arg "Bkz.unimodular_completion: not primitive";
        let s = s * g and t = t * g in
        (* rows:
           (x0, g_rest * tail_primitive)            <- the target row
           (-t, s * tail_primitive)                 <- det partner via Bezout
           (0, sub_rows 1..)                         *)
        let first = x0 :: rest in
        let second = -t :: List.map (fun v -> s * v) tail_primitive in
        let others = List.map (fun row -> 0 :: row) (List.tl sub) in
        first :: second :: others
      end

let unimodular_completion x =
  let rows = completion_list (Array.to_list x) in
  Array.of_list (List.map Array.of_list rows)

let apply_block_transform basis ~k ~l u =
  (* rows k..l-1 <- U * rows k..l-1 *)
  let m = l - k in
  let old_rows = Array.init m (fun i -> Array.copy basis.(k + i)) in
  for i = 0 to m - 1 do
    let acc = Array.make (Zmat.cols basis) 0 in
    for j = 0 to m - 1 do
      if u.(i).(j) <> 0 then Zmat.axpy u.(i).(j) old_rows.(j) acc
    done;
    basis.(k + i) <- acc
  done

let reduce ~block_size basis =
  if block_size < 2 then invalid_arg "Bkz.reduce: block_size must be >= 2";
  let n = Array.length basis in
  Lll.reduce basis;
  let improved = ref true and tours = ref 0 in
  while !improved && !tours < 16 do
    improved := false;
    incr tours;
    for k = 0 to n - 2 do
      let l = min (k + block_size) n in
      let g = Lll.gso basis in
      match Enum.block_shortest g ~k ~l with
      | None -> ()
      | Some (x, _) ->
          let d = Array.fold_left (fun acc v -> gcd acc v) 0 x in
          if d = 1 then begin
            let u = unimodular_completion x in
            apply_block_transform basis ~k ~l u;
            Lll.reduce basis;
            improved := true
          end
    done
  done
