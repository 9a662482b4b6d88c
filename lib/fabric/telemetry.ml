(* The fleet aggregator: drain per-worker telemetry streams
   (Traceio.Wire 'T' frames, one obs JSONL line each) into
   Obs.Summary folds, then merge them in source order — the exact
   fold [obs merge] performs over the workers' JSONL files, so the
   live end-of-run summary is bit-identical to the post-hoc one.
   Straggler and missed-heartbeat detection are pure functions over
   the drained reports, kept separate from I/O so they unit-test
   deterministically. *)

type report = {
  r_name : string;  (* the start record's "source", else the peer label *)
  r_source : string option;
  r_summary : Obs.Summary.t;
  r_skipped : int;
  r_heartbeats : int;
  r_done : int;
  r_total : int option;
  r_first_hb : float option;
  r_last_hb : float option;
  r_last_t : float option;
  r_truncated : string option;
}

let get_float j key = Option.bind (Obs.Json.member key j) Obs.Json.to_float_opt
let get_string j key = Option.bind (Obs.Json.member key j) Obs.Json.to_string_opt
let get_int j key = Option.bind (Obs.Json.member key j) Obs.Json.to_int_opt

let drain ?on_heartbeat ~peer ic =
  let recv = Traceio.Wire.open_telemetry_receiver ~peer ic in
  let st = Obs.Summary.state_create () in
  let source = ref None in
  let parse_skipped = ref 0 in
  let heartbeats = ref 0 in
  let done_ = ref 0 in
  let total = ref None in
  let first_hb = ref None in
  let last_hb = ref None in
  let last_t = ref None in
  let truncated = ref None in
  let name () = match !source with Some s -> s | None -> peer in
  let fold_line line =
    match Obs.Json.parse line with
    | Error _ -> incr parse_skipped
    | Ok j -> (
        match Obs.Summary.state_add st j with
        | exception Obs.Summary.Malformed _ -> incr parse_skipped
        | () ->
            (match get_float j "t" with Some t -> last_t := Some t | None -> ());
            (match get_string j "ev" with
            | Some "start" -> ( match get_string j "source" with Some s -> source := Some s | None -> ())
            | Some "event" when get_string j "name" = Some Reveal.Constants.heartbeat_event -> (
                incr heartbeats;
                let attrs = Option.value ~default:Obs.Json.Null (Obs.Json.member "attrs" j) in
                (match get_int attrs "done" with Some d -> done_ := d | None -> ());
                (match get_int attrs "total" with Some tt -> total := Some tt | None -> ());
                match get_float j "t" with
                | Some t ->
                    if !first_hb = None then first_hb := Some t;
                    last_hb := Some t;
                    let cb = match on_heartbeat with Some f -> f | None -> fun ~source:_ ~done_:_ ~total:_ ~t:_ -> () in
                    cb ~source:(name ()) ~done_:!done_ ~total:!total ~t
                | None -> ())
            | _ -> ()))
  in
  let rec loop () =
    match Traceio.Wire.telemetry_recv recv with
    | `End_of_stream -> ()
    | `Skipped _ -> loop ()
    | `Line line ->
        fold_line line;
        loop ()
    | exception Traceio.Error.Corrupt msg ->
        (* a worker that died mid-stream is exactly what a monitor is
           for: keep its partial summary and record how it ended *)
        truncated := Some msg
  in
  loop ();
  {
    r_name = name ();
    r_source = !source;
    r_summary = Obs.Summary.state_finish st;
    r_skipped = Traceio.Wire.telemetry_skipped recv + !parse_skipped;
    r_heartbeats = !heartbeats;
    r_done = !done_;
    r_total = !total;
    r_first_hb = !first_hb;
    r_last_hb = !last_hb;
    r_last_t = !last_t;
    r_truncated = !truncated;
  }

(* Merge in name order — the same left-to-right fold over the same
   ordering [obs merge] uses on sorted per-worker filenames, so the
   float additions associate identically. *)
let merge_reports reports =
  match List.sort (fun a b -> compare a.r_name b.r_name) reports with
  | [] -> None
  | first :: rest -> Some (List.fold_left (fun acc r -> Obs.Summary.merge acc r.r_summary) first.r_summary rest)

(* --- fleet health ----------------------------------------------------------- *)

let straggler_factor = 0.5

(* Rate = done/elapsed per worker; a worker under [straggler_factor] x
   the fleet median rate is a straggler.  Median is the upper median of
   the sorted rates (deterministic, no averaging), and a fleet of one
   has no peers to lag behind. *)
let stragglers workers =
  match workers with
  | [] | [ _ ] -> []
  | _ ->
      let rate (_, d, elapsed) =
        if elapsed > 0.0 then float_of_int d /. elapsed
        else if d > 0 then Float.infinity
        else 0.0
      in
      let rates = List.sort compare (List.map rate workers) in
      let median = List.nth rates (List.length rates / 2) in
      List.filter_map
        (fun ((name, _, _) as w) -> if rate w < straggler_factor *. median then Some name else None)
        workers
      |> List.sort compare

(* A report misses heartbeats when it never sent one, or when the
   stream kept going past the last heartbeat by more than twice the
   observed mean heartbeat interval (needs at least two heartbeats to
   know the cadence). *)
let missed_heartbeats r =
  if r.r_heartbeats = 0 then r.r_summary.Obs.Summary.records > 0
  else
    match (r.r_last_hb, r.r_last_t) with
    | Some hb, Some t when r.r_heartbeats >= 2 -> (
        match (r.r_first_hb, ()) with
        | Some first, () ->
            let mean = (hb -. first) /. float_of_int (r.r_heartbeats - 1) in
            mean > 0.0 && t -. hb > 2.0 *. mean
        | None, () -> false)
    | _ -> false
