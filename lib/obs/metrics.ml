(* Typed metrics registry: counters (atomic), gauges (last write
   wins) and fixed-bucket histograms (mutex per instance).  Stages
   get-or-create instruments by name once per run — never per window —
   so the hot path touches only an [Atomic.incr] or one short
   critical section.  Snapshots sort by name so the final "metrics"
   trace line is deterministic. *)

type counter = { c_name : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  h_lock : Mutex.t;
  les : float array;  (* ascending upper bounds, one bucket each *)
  slots : int array;  (* length les + 1; last slot = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type t = {
  lock : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- counters -------------------------------------------------------------- *)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Hashtbl.add t.counters name c;
          c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_cell by)
let counter_value c = Atomic.get c.c_cell

(* --- gauges ---------------------------------------------------------------- *)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g_cell = Atomic.make 0.0 } in
          Hashtbl.add t.gauges name g;
          g)

let set g v = Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

(* --- histograms ------------------------------------------------------------ *)

let default_buckets = [| 1e-5; 1e-4; 1e-3; 0.01; 0.1; 1.0; 10.0; 100.0 |]

let validate_buckets name les =
  if Array.length les = 0 then
    invalid_arg (Printf.sprintf "Obs.Metrics.histogram %s: empty bucket list" name);
  for i = 1 to Array.length les - 1 do
    if not (les.(i) > les.(i - 1)) then
      invalid_arg
        (Printf.sprintf "Obs.Metrics.histogram %s: buckets must be strictly increasing" name)
  done

let histogram ?(buckets = default_buckets) t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
          validate_buckets name buckets;
          let les = Array.copy buckets in
          let h =
            {
              h_name = name;
              h_lock = Mutex.create ();
              les;
              slots = Array.make (Array.length les + 1) 0;
              h_count = 0;
              h_sum = 0.0;
              h_min = Float.infinity;
              h_max = Float.neg_infinity;
            }
          in
          Hashtbl.add t.histograms name h;
          h)

let observe h v =
  Mutex.lock h.h_lock;
  (* first bucket whose upper bound admits v (boundary values count in
     the bucket they bound); values above every bound land in the
     trailing overflow slot *)
  let n = Array.length h.les in
  let i = ref 0 in
  while !i < n && not (v <= h.les.(!i)) do
    Stdlib.incr i
  done;
  h.slots.(!i) <- h.slots.(!i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  Mutex.unlock h.h_lock

type histogram_snapshot = {
  name : string;
  count : int;
  sum : float;
  min : float option;  (* None when empty *)
  max : float option;
  bounds : float array;
  counts : int array;  (* per bound, same order *)
  overflow : int;
}

let histogram_snapshot h =
  Mutex.lock h.h_lock;
  let s =
    {
      name = h.h_name;
      count = h.h_count;
      sum = h.h_sum;
      min = (if h.h_count = 0 then None else Some h.h_min);
      max = (if h.h_count = 0 then None else Some h.h_max);
      bounds = Array.copy h.les;
      counts = Array.sub h.slots 0 (Array.length h.les);
      overflow = h.slots.(Array.length h.les);
    }
  in
  Mutex.unlock h.h_lock;
  s

(* --- quantile estimation ---------------------------------------------------- *)

(* A fixed-bucket histogram only bounds each observation, so quantiles
   are estimates: walk the buckets to the one containing the rank and
   interpolate linearly inside it.  The observed min and max stand in
   for the open outer edges (the first bucket's lower edge, the
   overflow bucket's upper edge), and the result is clamped to
   [min, max] so an estimate can never leave the observed range.
   Pure arithmetic over the snapshot — deterministic for a fixed
   bucket layout, which is what lets merged summaries report the same
   p50/p95/p99 whatever process computed them. *)
let estimate_quantile ~count ~min:mn ~max:mx ~buckets ~overflow q =
  if count <= 0 then None
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = q *. float_of_int count in
    let clamp v =
      let v = match mx with Some m when v > m -> m | _ -> v in
      match mn with Some m when v < m -> m | _ -> v
    in
    let interp lo hi frac =
      let frac = if frac < 0.0 then 0.0 else if frac > 1.0 then 1.0 else frac in
      if Float.is_finite lo && Float.is_finite hi then lo +. ((hi -. lo) *. frac)
      else if Float.is_finite hi then hi
      else lo
    in
    let lo0 = match mn with Some m -> m | None -> Float.neg_infinity in
    let hi_last = match mx with Some m -> m | None -> Float.infinity in
    let rec walk seen lo = function
      | [] ->
          (* the overflow bucket: (last bound, max] *)
          if overflow <= 0 then Some (clamp lo)
          else Some (clamp (interp lo hi_last ((rank -. float_of_int seen) /. float_of_int overflow)))
      | (le, c) :: rest ->
          if c > 0 && rank <= float_of_int (seen + c) then
            Some (clamp (interp lo le ((rank -. float_of_int seen) /. float_of_int c)))
          else walk (seen + c) le rest
    in
    walk 0 lo0 buckets
  end

(* --- snapshot --------------------------------------------------------------- *)

(* Hash order must never reach a snapshot: collect, then sort by the
   registered name right here, so every caller gets a stable listing. *)
let sorted_values name_of tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] |> List.sort (fun a b -> compare (name_of a) (name_of b))

let json_of_hist_snapshot s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("min", (match s.min with Some v -> Json.Float v | None -> Json.Null));
      ("max", (match s.max with Some v -> Json.Float v | None -> Json.Null));
      ( "buckets",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i le -> Json.Obj [ ("le", Json.Float le); ("count", Json.Int s.counts.(i)) ])
                s.bounds)) );
      ("overflow", Json.Int s.overflow);
    ]

let snapshot t =
  let counters, gauges, hists =
    locked t (fun () ->
        ( sorted_values (fun c -> c.c_name) t.counters,
          sorted_values (fun g -> g.g_name) t.gauges,
          sorted_values (fun h -> h.h_name) t.histograms ))
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun c -> (c.c_name, Json.Int (counter_value c))) counters));
      ("gauges", Json.Obj (List.map (fun g -> (g.g_name, Json.Float (gauge_value g))) gauges));
      ( "histograms",
        Json.Obj (List.map (fun h -> (h.h_name, json_of_hist_snapshot (histogram_snapshot h))) hists)
      );
    ]
