(* The handle every instrumented stage receives.  [disabled] is the
   default argument throughout the pipeline: [enabled] is false, so
   [span] reduces to calling the thunk and [event] to one branch —
   no allocation, no clock read.  An enabled context stamps events
   with its clock, hands spans process-unique ids, and owns a shared
   metrics registry whose snapshot becomes the trace's final line. *)

type level = Debug | Info | Warn | Error

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

type t = {
  enabled : bool;
  sink : Sink.t;
  clock : Clock.t;
  metrics : Metrics.t;
  ids : int Atomic.t;
  mutable closed : bool;
}

let disabled =
  {
    enabled = false;
    sink = Sink.null;
    clock = Clock.logical ();
    metrics = Metrics.create ();
    ids = Atomic.make 0;
    closed = true;
  }

let schema_version = 1

let create ?clock ?source ~sink () =
  let clock = match clock with Some c -> c | None -> Clock.wall () in
  let t =
    { enabled = true; sink; clock; metrics = Metrics.create (); ids = Atomic.make 0; closed = false }
  in
  Sink.emit sink
    (Json.Obj
       ([
          ("v", Json.Int schema_version);
          ("ev", Json.String "start");
          ("clock", Json.String (Clock.kind_name clock));
        ]
       @ (match source with Some s -> [ ("source", Json.String s) ] | None -> [])
       @ [ ("t", Json.Float (Clock.now clock)) ]));
  t

let enabled t = t.enabled
let metrics t = t.metrics
(* registry conveniences — resolve by name against the ctx registry *)
let counter t name = Metrics.counter t.metrics name
let gauge t name = Metrics.gauge t.metrics name
let histogram ?buckets t name = Metrics.histogram ?buckets t.metrics name

let event ?(level = Info) ?(attrs = []) t name =
  if t.enabled then
    Sink.emit t.sink
      (Json.Obj
         (("ev", Json.String "event")
         :: ("name", Json.String name)
         :: ("level", Json.String (level_name level))
         :: ("t", Json.Float (Clock.now t.clock))
         :: (match attrs with [] -> [] | l -> [ ("attrs", Json.Obj l) ])))

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = Atomic.fetch_and_add t.ids 1 + 1 in
    let t0 = Clock.now t.clock in
    Sink.emit t.sink
      (Json.Obj
         [ ("ev", Json.String "span_begin"); ("name", Json.String name); ("id", Json.Int id); ("t", Json.Float t0) ]);
    let finish ~error =
      let t1 = Clock.now t.clock in
      Sink.emit t.sink
        (Json.Obj
           (("ev", Json.String "span_end")
           :: ("name", Json.String name)
           :: ("id", Json.Int id)
           :: ("t", Json.Float t1)
           :: ("dur", Json.Float (t1 -. t0))
           :: (if error then [ ("error", Json.Bool true) ] else [])))
    in
    match f () with
    | v ->
        finish ~error:false;
        v
    | exception e ->
        finish ~error:true;
        raise e
  end

let close t =
  if t.enabled && not t.closed then begin
    t.closed <- true;
    let fields =
      match Metrics.snapshot t.metrics with
      | Json.Obj fields -> fields
      | other -> [ ("snapshot", other) ]
    in
    Sink.emit t.sink
      (Json.Obj
         (("ev", Json.String "metrics") :: ("t", Json.Float (Clock.now t.clock)) :: fields));
    Sink.close t.sink
  end
