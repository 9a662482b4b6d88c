let scores classes =
  let classes = Array.to_list classes |> List.filter (fun c -> Array.length c > 0) in
  (match classes with [] | [ _ ] -> invalid_arg "Sosd.scores: need at least two non-empty classes" | _ -> ());
  let means = List.map Mathkit.Stats.mean_vector classes in
  let d = Array.length (List.hd means) in
  List.iter (fun m -> if Array.length m <> d then invalid_arg "Sosd.scores: ragged classes") means;
  let score = Array.make d 0.0 in
  let rec pairs = function
    | [] -> ()
    | m :: rest ->
        List.iter
          (fun m' ->
            for t = 0 to d - 1 do
              let diff = m.(t) -. m'.(t) in
              score.(t) <- score.(t) +. (diff *. diff)
            done)
          rest;
        pairs rest
  in
  pairs means;
  score

let scores_t classes =
  let classes = Array.to_list classes |> List.filter (fun c -> Array.length c > 0) in
  (match classes with [] | [ _ ] -> invalid_arg "Sosd.scores_t: need at least two non-empty classes" | _ -> ());
  let stats =
    List.map
      (fun rows ->
        let mu = Mathkit.Stats.mean_vector rows in
        let d = Array.length mu in
        let var = Array.make d 0.0 in
        Array.iter
          (fun r ->
            for t = 0 to d - 1 do
              let diff = r.(t) -. mu.(t) in
              var.(t) <- var.(t) +. (diff *. diff)
            done)
          rows;
        let n = Array.length rows in
        let var = Array.map (fun v -> if n > 1 then v /. float_of_int (n - 1) else 0.0) var in
        (mu, var, n))
      classes
  in
  let d = match stats with (mu, _, _) :: _ -> Array.length mu | [] -> 0 in
  List.iter (fun (mu, _, _) -> if Array.length mu <> d then invalid_arg "Sosd.scores_t: ragged classes") stats;
  let kappa = 1e-9 in
  let score = Array.make d 0.0 in
  let rec pairs = function
    | [] -> ()
    | (mu, var, n) :: rest ->
        List.iter
          (fun (mu', var', n') ->
            for t = 0 to d - 1 do
              let diff = mu.(t) -. mu'.(t) in
              let se = (var.(t) /. float_of_int n) +. (var'.(t) /. float_of_int n') +. kappa in
              score.(t) <- score.(t) +. (diff *. diff /. se)
            done)
          rest;
        pairs rest
  in
  pairs stats;
  score

let min_spacing = 3

let select ~count score =
  if count <= 0 then invalid_arg "Sosd.select: count must be positive";
  let order = Array.init (Array.length score) (fun i -> i) in
  Array.sort (fun a b -> Float.compare score.(b) score.(a)) order;
  let chosen = ref [] and taken = ref 0 in
  Array.iter
    (fun idx ->
      if !taken < count && List.for_all (fun c -> abs (c - idx) >= min_spacing) !chosen then begin
        chosen := idx :: !chosen;
        incr taken
      end)
    order;
  let a = Array.of_list !chosen in
  Array.sort compare a;
  a

let pick window pois = Array.map (fun i -> window.(i)) pois

(* [pick] over views: gather the POI samples into a caller-owned
   vector.  Bounds are validated per POI (the POI table is data), then
   the write itself is raw. *)
let pick_fv window pois ~out =
  let open Mathkit in
  if Fvec.length out <> Array.length pois then invalid_arg "Sosd.pick_fv: output length mismatch";
  let n = Fvec.length window in
  let wbuf = Fvec.buffer window and woff = Fvec.offset window in
  let obuf = Fvec.buffer out and ooff = Fvec.offset out in
  Fvec.check_range wbuf ~off:woff ~len:n "Sosd.pick_fv";
  Fvec.check_range obuf ~off:ooff ~len:(Fvec.length out) "Sosd.pick_fv";
  for k = 0 to Array.length pois - 1 do
    let i = pois.(k) in
    if i < 0 || i >= n then invalid_arg "Sosd.pick_fv: POI out of window bounds";
    (* srclint: allow unsafe-index POI checked against the window above, both view ranges check_range'd *)
    Bigarray.Array1.unsafe_set obuf (ooff + k) (Bigarray.Array1.unsafe_get wbuf (woff + i))
  done
