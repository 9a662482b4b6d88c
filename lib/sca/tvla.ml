let check_sets a b =
  if Array.length a < 2 || Array.length b < 2 then invalid_arg "Tvla: need at least 2 traces per set";
  let d = Array.length a.(0) in
  Array.iter (fun r -> if Array.length r <> d then invalid_arg "Tvla: ragged traces") a;
  Array.iter (fun r -> if Array.length r <> d then invalid_arg "Tvla: ragged traces") b;
  d

let t_statistics fixed random =
  let d = check_sets fixed random in
  let stats set =
    let n = float_of_int (Array.length set) in
    let mean = Mathkit.Stats.mean_vector set in
    let var = Array.make d 0.0 in
    Array.iter
      (fun r ->
        for t = 0 to d - 1 do
          let diff = r.(t) -. mean.(t) in
          var.(t) <- var.(t) +. (diff *. diff)
        done)
      set;
    (mean, Array.map (fun v -> v /. (n -. 1.0)) var, n)
  in
  let m1, v1, n1 = stats fixed in
  let m2, v2, n2 = stats random in
  Array.init d (fun t ->
      let se = sqrt ((v1.(t) /. n1) +. (v2.(t) /. n2)) in
      if se <= 0.0 then 0.0 else (m1.(t) -. m2.(t)) /. se)

let threshold = 4.5

let leaky_points ts =
  Array.to_list ts
  |> List.mapi (fun i t -> (i, t))
  |> List.filter (fun (_, t) -> Float.abs t > threshold)
  |> List.map fst |> Array.of_list

let max_abs_t ts = Array.fold_left (fun acc t -> Float.max acc (Float.abs t)) 0.0 ts

let center_square set =
  let mean = Mathkit.Stats.mean_vector set in
  Array.map (fun r -> Array.mapi (fun t x -> let d = x -. mean.(t) in d *. d) r) set

let second_order fixed random =
  ignore (check_sets fixed random);
  t_statistics (center_square fixed) (center_square random)
