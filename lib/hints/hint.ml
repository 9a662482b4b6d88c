type kind =
  | Perfect of int
  | Approximate of { mean : float; variance : float; confidence : float }
  | None_useful

type t = { coordinate : int; kind : kind }

let centered_mean dist =
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  if total <= 0.0 then invalid_arg "Hint: empty distribution";
  Array.fold_left (fun acc (v, p) -> acc +. (float_of_int v *. p)) 0.0 dist /. total

let variance dist =
  let mu = centered_mean dist in
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  Array.fold_left (fun acc (v, p) -> acc +. (p *. (float_of_int v -. mu) *. (float_of_int v -. mu))) 0.0 dist
  /. total

let of_posterior ~coordinate dist =
  if Array.length dist = 0 then invalid_arg "Hint.of_posterior: empty distribution";
  let mu = centered_mean dist in
  let var = variance dist in
  let best_value = ref (fst dist.(0)) and best_p = ref (snd dist.(0)) in
  Array.iter
    (fun (v, p) ->
      if p > !best_p then begin
        best_p := p;
        best_value := v
      end)
    dist;
  if var <= 1e-9 then { coordinate; kind = Perfect !best_value }
  else { coordinate; kind = Approximate { mean = mu; variance = var; confidence = !best_p } }

let sign_hint ~sigma ~coordinate sign =
  match compare sign 0 with
  | 0 -> { coordinate; kind = Perfect 0 }
  | s ->
      (* Half-normal posterior: mean s*sigma*sqrt(2/pi), variance
         sigma^2 (1 - 2/pi). *)
      let mean = float_of_int s *. sigma *. sqrt (2.0 /. Float.pi) in
      let variance = sigma *. sigma *. (1.0 -. (2.0 /. Float.pi)) in
      (* A sign guess on a nonzero coefficient is certain here (the
         branch classifier is exact); confidence reflects guessing the
         value, which sign alone does not give. *)
      { coordinate; kind = Approximate { mean; variance; confidence = 0.0 } }

let kind_counts hints =
  List.fold_left
    (fun (p, a, n) h ->
      match h.kind with
      | Perfect _ -> (p + 1, a, n)
      | Approximate _ -> (p, a + 1, n)
      | None_useful -> (p, a, n + 1))
    (0, 0, 0) hints

let apply dbdd hint =
  match hint.kind with
  | Perfect _ -> Dbdd.perfect_hint dbdd hint.coordinate
  | Approximate { variance; _ } -> Dbdd.posterior_hint dbdd hint.coordinate ~posterior_variance:variance
  | None_useful -> ()

let apply_all dbdd hint_list = List.iter (apply dbdd) hint_list

type ladder_step = {
  guesses : int;
  success_probability : float;
  bikz : float;
}

let guess_ladder dbdd hint_list ~max_guesses =
  if max_guesses < 1 then invalid_arg "Hint.guess_ladder: need at least one guess";
  let candidates =
    List.filter_map
      (fun h -> match h.kind with Approximate { confidence; _ } when confidence > 0.0 -> Some (h.coordinate, confidence) | _ -> None)
      hint_list
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let rec go steps taken acc_prob = function
    | [] -> List.rev steps
    | _ when taken >= max_guesses -> List.rev steps
    | (coordinate, confidence) :: rest ->
        Dbdd.perfect_hint dbdd coordinate;
        let acc_prob = acc_prob *. confidence in
        let step = { guesses = taken + 1; success_probability = acc_prob; bikz = Dbdd.estimate_bikz dbdd } in
        go (step :: steps) (taken + 1) acc_prob rest
  in
  go [] 0 1.0 candidates
