let recommended_domains () = min 8 (max 1 (Domain.recommended_domain_count () - 1))

(* One work-stealing pass shared by both entry points: every worker
   owns one [scratch ()] value for its whole lifetime, so per-item
   buffers (Fvec arenas, classifier scratch) are allocated once per
   domain instead of once per item — and are never shared across
   domains, which would race. *)
let map_array_with ?domains ~scratch f xs =
  let n = Array.length xs in
  let workers = max 1 (min (Option.value domains ~default:(recommended_domains ())) n) in
  if n = 0 then [||]
  else if workers = 1 then begin
    let s = scratch () in
    Array.map (f s) xs
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let s = scratch () in
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else begin
          match f s xs.(i) with
          | v -> results.(i) <- Some v
          | exception e -> Atomic.set failure (Some e)
        end
      done
    in
    let handles = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join handles;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_array ?domains f xs = map_array_with ?domains ~scratch:(fun () -> ()) (fun () x -> f x) xs
