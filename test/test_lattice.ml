(* Exact lattice backend: LLL, enumeration, BKZ, LWE embedding. *)

let rng () = Mathkit.Prng.create ~seed:424242L ()

(* --- Zmat ------------------------------------------------------------------ *)

let test_zmat_checked_overflow () =
  Alcotest.check_raises "mul overflow" (Failure "Zmat: integer overflow (instance too large for the exact backend)")
    (fun () -> ignore (Lattice.Zmat.checked_mul max_int 2));
  Alcotest.check_raises "add overflow" (Failure "Zmat: integer overflow (instance too large for the exact backend)")
    (fun () -> ignore (Lattice.Zmat.checked_add max_int 1))

let test_zmat_ops () =
  Alcotest.(check int) "dot" 32 (Lattice.Zmat.dot [| 1; 2; 3 |] [| 4; 5; 6 |]);
  Alcotest.(check (array int)) "sub" [| -3; -3 |] (Lattice.Zmat.sub [| 1; 2 |] [| 4; 5 |]);
  Alcotest.(check int) "norm_sq" 14 (Lattice.Zmat.norm_sq [| 1; 2; 3 |]);
  let y = [| 1; 1 |] in
  Lattice.Zmat.axpy 3 [| 2; 0 |] y;
  Alcotest.(check (array int)) "axpy" [| 7; 1 |] y

(* --- Lll -------------------------------------------------------------------- *)

let random_basis g n ~scale =
  (* random unimodular-ish mess: identity * scale plus noise rows *)
  let b = Array.init n (fun i -> Array.init n (fun j -> if i = j then scale else Mathkit.Prng.int_in g (-3) 3)) in
  (* mix rows to make it non-trivial *)
  for i = 0 to n - 1 do
    let j = Mathkit.Prng.int g n in
    if i <> j then Lattice.Zmat.axpy (1 + Mathkit.Prng.int g 3) b.(j) b.(i)
  done;
  b

let test_lll_reduces () =
  let g = rng () in
  for _ = 1 to 10 do
    let b = random_basis g 6 ~scale:50 in
    Lattice.Lll.reduce b;
    Alcotest.(check bool) "is_reduced" true (Lattice.Lll.is_reduced b)
  done

let test_lll_preserves_volume () =
  let g = rng () in
  let b = random_basis g 5 ~scale:30 in
  let vol basis =
    let gso = Lattice.Lll.gso basis in
    Array.fold_left (fun acc x -> acc +. (0.5 *. log x)) 0.0 gso.Lattice.Lll.b_star_sq
  in
  let v0 = vol b in
  Lattice.Lll.reduce b;
  Alcotest.(check bool) "volume invariant" true (Float.abs (vol b -. v0) < 1e-6)

let test_lll_shortens_first_vector () =
  let g = rng () in
  for _ = 1 to 5 do
    let b = random_basis g 6 ~scale:100 in
    let before = Lattice.Zmat.norm_sq b.(0) in
    Lattice.Lll.reduce b;
    Alcotest.(check bool) "not longer" true (Lattice.Zmat.norm_sq b.(0) <= before)
  done

let test_lll_finds_planted_short_vector () =
  (* q-ary style lattice with a planted short vector: LLL at this size
     must find something close to it *)
  let q = 9973 in
  let b = [| [| q; 0; 0 |]; [| 123; 1; 0 |]; [| 456; 0; 1 |] |] in
  Lattice.Lll.reduce b;
  Alcotest.(check bool) "short first vector" true (Lattice.Zmat.norm_sq b.(0) < q)

let test_lll_rejects_dependent () =
  Alcotest.check_raises "dependent" (Invalid_argument "Lll: linearly dependent basis") (fun () ->
      Lattice.Lll.reduce [| [| 1; 2 |]; [| 2; 4 |] |])

(* --- Enum -------------------------------------------------------------------- *)

let test_enum_shortest_known_lattice () =
  (* Z^2 scaled: shortest vector has norm scale^2 *)
  let v = Lattice.Enum.shortest_vector [| [| 7; 0 |]; [| 0; 7 |] |] in
  Alcotest.(check int) "norm" 49 (Lattice.Zmat.norm_sq v)

let test_enum_beats_or_ties_lll () =
  let g = rng () in
  for _ = 1 to 5 do
    let b = random_basis g 6 ~scale:60 in
    let lll = Lattice.Zmat.copy b in
    Lattice.Lll.reduce lll;
    let sv = Lattice.Enum.shortest_vector b in
    Alcotest.(check bool) "enum <= lll" true (Lattice.Zmat.norm_sq sv <= Lattice.Zmat.norm_sq lll.(0));
    Alcotest.(check bool) "nonzero" true (Lattice.Zmat.norm_sq sv > 0)
  done

let test_enum_known_minimum () =
  (* lattice generated by (2,0),(1,2): shortest is (1,2)? norms: (2,0)=4,
     (1,2)=5, (1,-2)=5, (0,4)... check against exhaustive search *)
  let basis = [| [| 2; 0 |]; [| 1; 2 |] |] in
  let sv = Lattice.Enum.shortest_vector basis in
  let best = ref max_int in
  for a = -10 to 10 do
    for b = -10 to 10 do
      if a <> 0 || b <> 0 then begin
        let v = Lattice.Zmat.add (Lattice.Zmat.scale a basis.(0)) (Lattice.Zmat.scale b basis.(1)) in
        best := min !best (Lattice.Zmat.norm_sq v)
      end
    done
  done;
  Alcotest.(check int) "matches exhaustive" !best (Lattice.Zmat.norm_sq sv)

(* --- Bkz ---------------------------------------------------------------------- *)

let test_unimodular_completion () =
  let g = rng () in
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  for _ = 1 to 50 do
    let n = 2 + Mathkit.Prng.int g 5 in
    let x = Array.init n (fun _ -> Mathkit.Prng.int_in g (-9) 9) in
    let d = Array.fold_left gcd 0 x in
    if d = 1 then begin
      let u = Lattice.Bkz.unimodular_completion x in
      Alcotest.(check (array int)) "first row" x u.(0);
      (* determinant +-1 via float LU *)
      let m = Mathkit.Matrix.of_arrays (Array.map (Array.map float_of_int) u) in
      let det = Mathkit.Linalg.logdet m in
      Alcotest.(check bool) "unimodular" true (Float.abs det < 1e-6)
    end
  done

let test_unimodular_rejects_imprimitive () =
  Alcotest.check_raises "gcd 2" (Invalid_argument "Bkz.unimodular_completion: not primitive") (fun () ->
      ignore (Lattice.Bkz.unimodular_completion [| 2; 4 |]))

let test_bkz_improves_hermite_factor () =
  (* both bases span the same lattice, so their Hermite factors
     ||b_1|| / vol^(1/n) compare as ||b_1|| *)
  let g = rng () in
  for _ = 1 to 5 do
    let b = random_basis g 10 ~scale:80 in
    let lll = Lattice.Zmat.copy b in
    Lattice.Lll.reduce lll;
    let bkz = Lattice.Zmat.copy b in
    Lattice.Bkz.reduce ~block_size:6 bkz;
    Alcotest.(check bool) "bkz no worse" true (Lattice.Zmat.norm_sq bkz.(0) <= Lattice.Zmat.norm_sq lll.(0))
  done

let test_bkz_full_block_is_svp () =
  let g = rng () in
  let b = random_basis g 6 ~scale:60 in
  let exact = Lattice.Zmat.norm_sq (Lattice.Enum.shortest_vector b) in
  Lattice.Bkz.reduce ~block_size:6 b;
  Alcotest.(check int) "b1 is shortest" exact (Lattice.Zmat.norm_sq b.(0))

(* --- Embed -------------------------------------------------------------------- *)

let test_negacyclic_matrix () =
  let q = 97 in
  let p = [| 1; 2; 3; 4 |] in
  let a = Lattice.Embed.negacyclic_matrix ~q p in
  (* row j, col i = coefficient of x^j in p * x^i; for i=1: p*x =
     4*(-1) + 1 x + 2 x^2 + 3 x^3 *)
  Alcotest.(check int) "wraparound negated" (q - 4) a.(0).(1);
  Alcotest.(check int) "shifted" 1 a.(1).(1);
  (* compare against Poly.mul_schoolbook on a random u *)
  let g = rng () in
  let md = Mathkit.Modular.modulus q in
  let u = Mathkit.Poly.uniform g md 4 in
  let via_matrix = Array.init 4 (fun j -> Array.fold_left ( + ) 0 (Array.init 4 (fun i -> a.(j).(i) * u.(i))) mod q) in
  let via_poly = Mathkit.Poly.mul_schoolbook md p u in
  Alcotest.(check (array int)) "matches ring product" via_poly via_matrix

let toy_lwe_instance g ~n ~q ~sigma =
  let md = Mathkit.Modular.modulus q in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Mathkit.Prng.int g q)) in
  let s = Array.init n (fun _ -> Mathkit.Prng.ternary g) in
  let polar = Mathkit.Gaussian.polar () in
  let e = Array.init n (fun _ -> int_of_float (Float.round (Mathkit.Gaussian.normal polar g ~mu:0.0 ~sigma))) in
  let b =
    Array.init n (fun j ->
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc := Mathkit.Modular.add md !acc (Mathkit.Modular.mul md a.(j).(i) (Mathkit.Modular.reduce md s.(i)))
        done;
        Mathkit.Modular.add md !acc (Mathkit.Modular.reduce md e.(j)))
  in
  ({ Lattice.Embed.q; a; b }, s, e)

let test_embed_solve_small_lwe () =
  let g = rng () in
  let solved = ref 0 in
  for _ = 1 to 5 do
    let inst, s, e = toy_lwe_instance g ~n:8 ~q:12289 ~sigma:1.0 in
    match Lattice.Embed.solve inst with
    | Some sol ->
        if sol.Lattice.Embed.secret = s && sol.Lattice.Embed.error = e then incr solved
    | None -> ()
  done;
  Alcotest.(check bool) "solves most small instances" true (!solved >= 4)

let test_embed_eliminate_perfect () =
  let g = rng () in
  let inst, s, e = toy_lwe_instance g ~n:10 ~q:12289 ~sigma:1.0 in
  (* reveal 4 error coordinates exactly *)
  let known = List.init 4 (fun j -> (j, e.(j))) in
  let reduced = Lattice.Embed.eliminate_perfect inst ~known in
  Alcotest.(check int) "fewer samples" 6 (Array.length reduced.Lattice.Embed.b);
  Alcotest.(check int) "fewer unknowns" 6 (Array.length reduced.Lattice.Embed.a.(0));
  (* the reduced instance must still be satisfied by the remaining error *)
  ignore s;
  match Lattice.Embed.solve reduced with
  | Some sol ->
      (* remaining errors of the reduced instance are e.(4..9) *)
      Alcotest.(check (array int)) "errors preserved" (Array.sub e 4 6) sol.Lattice.Embed.error
  | None -> Alcotest.fail "reduced instance should be solvable"

let test_embed_recenter () =
  let inst = { Lattice.Embed.q = 97; a = [| [| 1 |] |]; b = [| 50 |] } in
  let r = Lattice.Embed.recenter inst ~means:[| 10.0 |] in
  Alcotest.(check int) "b shifted" 40 r.Lattice.Embed.b.(0)

let test_embed_hints_make_hard_instance_easy () =
  (* At n=14 with sigma 3.2 noise, plain LLL usually fails;
     with most error coordinates revealed it must succeed. *)
  let g = rng () in
  let inst, s, e = toy_lwe_instance g ~n:14 ~q:132120577 ~sigma:3.2 in
  let known = List.init 10 (fun j -> (j, e.(j))) in
  let reduced = Lattice.Embed.eliminate_perfect inst ~known in
  match Lattice.Embed.solve reduced with
  | Some sol ->
      ignore s;
      Alcotest.(check (array int)) "residual errors recovered" (Array.sub e 10 4) sol.Lattice.Embed.error
  | None -> Alcotest.fail "hint-reduced instance should be easy"

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("zmat overflow guards", test_zmat_checked_overflow);
      ("zmat vector ops", test_zmat_ops);
      ("lll reduces", test_lll_reduces);
      ("lll preserves volume", test_lll_preserves_volume);
      ("lll shortens b1", test_lll_shortens_first_vector);
      ("lll planted short vector", test_lll_finds_planted_short_vector);
      ("lll rejects dependent", test_lll_rejects_dependent);
      ("enum shortest of scaled Z^2", test_enum_shortest_known_lattice);
      ("enum beats or ties lll", test_enum_beats_or_ties_lll);
      ("enum matches exhaustive", test_enum_known_minimum);
      ("unimodular completion", test_unimodular_completion);
      ("unimodular rejects imprimitive", test_unimodular_rejects_imprimitive);
      ("bkz improves hermite factor", test_bkz_improves_hermite_factor);
      ("bkz full block = svp", test_bkz_full_block_is_svp);
      ("negacyclic matrix", test_negacyclic_matrix);
      ("embed solves small lwe", test_embed_solve_small_lwe);
      ("embed eliminate perfect hints", test_embed_eliminate_perfect);
      ("embed recenter", test_embed_recenter);
      ("embed hints make hard easy", test_embed_hints_make_hard_instance_easy);
    ]
