type t = {
  mean : float array;
  basis : Mathkit.Matrix.t;
}

let between_class_scatter classes =
  (match classes with [] | [ _ ] -> invalid_arg "Pca.fit: need at least two classes" | _ -> ());
  let means = List.map (fun (_, rows) -> Mathkit.Stats.mean_vector rows) classes in
  let d = Array.length (List.hd means) in
  List.iter (fun m -> if Array.length m <> d then invalid_arg "Pca.fit: ragged classes") means;
  let global = Mathkit.Stats.mean_vector (Array.of_list means) in
  let scatter = Mathkit.Matrix.create d d in
  List.iter
    (fun mu ->
      let diff = Array.init d (fun i -> mu.(i) -. global.(i)) in
      for i = 0 to d - 1 do
        if diff.(i) <> 0.0 then
          for j = 0 to d - 1 do
            Mathkit.Matrix.set scatter i j (Mathkit.Matrix.get scatter i j +. (diff.(i) *. diff.(j)))
          done
      done)
    means;
  (global, scatter)

let fit ?(k = 8) classes =
  let global, scatter = between_class_scatter classes in
  let k = min k (List.length classes - 1) in
  let k = max 1 k in
  { mean = global; basis = Mathkit.Linalg.principal_components scatter ~k }

let components t = Mathkit.Matrix.cols t.basis

let transform t window =
  let d = Array.length t.mean in
  if Array.length window <> d then invalid_arg "Pca.transform: dimension mismatch";
  let centered = Array.init d (fun i -> window.(i) -. t.mean.(i)) in
  Array.init (components t) (fun c ->
      let acc = ref 0.0 in
      for i = 0 to d - 1 do
        acc := !acc +. (centered.(i) *. Mathkit.Matrix.get t.basis i c)
      done;
      !acc)

let explained classes ~k =
  let _, scatter = between_class_scatter classes in
  let values, _ = Mathkit.Linalg.jacobi_eigen scatter in
  let total = Array.fold_left (fun acc v -> acc +. Float.max 0.0 v) 0.0 values in
  if total <= 0.0 then 0.0
  else begin
    let top = ref 0.0 in
    for i = 0 to min k (Array.length values) - 1 do
      top := !top +. Float.max 0.0 values.(i)
    done;
    !top /. total
  end
