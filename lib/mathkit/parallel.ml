(* The calling domain runs a worker too ([map_array_with] below), so it
   counts toward the default. *)
let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* One pass shared by both entry points: every worker owns one
   [scratch ()] value for its whole lifetime, so per-item buffers (Fvec
   arenas, classifier scratch) are allocated once per domain instead of
   once per item — and are never shared across domains, which would
   race.  The schedule is fixed: worker [w] (the calling domain is
   worker 0) takes items [w], [w + workers], [w + 2 workers] ..., so
   which domain runs an item, and what each domain allocates, repeats
   from run to run.

   A failure is the lowest failing index's, as [Array.map] on one
   domain would raise: [failed] holds the lowest failing index so far,
   a worker stops at the first of its items above it, and every item
   below it still runs, so a lower failure on another worker replaces
   it.  Each failing worker writes only its own slot of [errors], and
   the joins order those writes before the read. *)
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
    let failed = Atomic.make n in
    let errors = Array.make n None in
    let rec lower_to i =
      let cur = Atomic.get failed in
      if i < cur && not (Atomic.compare_and_set failed cur i) then lower_to i
    in
    let worker w () =
      let s = scratch () in
      let i = ref w in
      while !i < Atomic.get failed do
        (match f s xs.(!i) with
        | v -> results.(!i) <- Some v
        | exception e ->
            errors.(!i) <- Some (e, Printexc.get_raw_backtrace ());
            lower_to !i);
        i := !i + workers
      done
    in
    let handles = Array.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1))) in
    worker 0 ();
    Array.iter Domain.join handles;
    let k = Atomic.get failed in
    if k < n then
      match errors.(k) with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> assert false
    else Array.map (function Some v -> v | None -> assert false) results
  end

let map_array ?domains f xs = map_array_with ?domains ~scratch:(fun () -> ()) (fun () x -> f x) xs
