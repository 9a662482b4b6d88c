(* Pluggable event sinks.  [Null] is the default everywhere: it is a
   shared immutable constructor, so "obs disabled" costs one pattern
   match and allocates nothing on the hot path.  The JSONL sinks
   serialize under a mutex — emitters may run on multiple domains. *)

type t =
  | Null
  | Emit of { emit : Json.t -> unit; close : unit -> unit }

let null = Null

let emit t j = match t with Null -> () | Emit s -> s.emit j
let close t = match t with Null -> () | Emit s -> s.close ()

let jsonl_sink ~close_channel oc =
  let lock = Mutex.create () in
  let emit j =
    let line = Json.to_string j in
    Mutex.lock lock;
    output_string oc line;
    output_char oc '\n';
    Mutex.unlock lock
  in
  let close () =
    Mutex.lock lock;
    (if close_channel then close_out oc else flush oc);
    Mutex.unlock lock
  in
  Emit { emit; close }

let file path =
  match open_out path with
  | oc -> jsonl_sink ~close_channel:true oc
  | exception Sys_error msg ->
      failwith (Printf.sprintf "Obs.Sink.file: cannot write %s: %s" path msg)

let memory () =
  let lock = Mutex.create () in
  let events = ref [] in
  let emit j =
    Mutex.lock lock;
    events := j :: !events;
    Mutex.unlock lock
  in
  let contents () =
    Mutex.lock lock;
    let l = List.rev !events in
    Mutex.unlock lock;
    l
  in
  (Emit { emit; close = (fun () -> ()) }, contents)

(* --- tee -------------------------------------------------------------------- *)

(* Both destinations must observe events in the SAME order: the live
   monitor's fold is only bit-identical to a post-hoc merge of the
   JSONL file if the stream carries the file's exact line sequence, and
   span-duration sums are float folds in record order.  So a tee takes
   one lock around both emits instead of letting each sink serialize
   independently. *)
let tee a b =
  match (a, b) with
  | Null, t | t, Null -> t
  | _ ->
      let lock = Mutex.create () in
      let emit_both j =
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            emit a j;
            emit b j)
      in
      let close_both () =
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            (* close both even if the first raises *)
            match close a with
            | () -> close b
            | exception e ->
                (try close b with _ -> ());
                raise e)
      in
      Emit { emit = emit_both; close = close_both }

(* --- bounded streaming sink ------------------------------------------------- *)

(* Telemetry must never stall or reorder the attack hot path, so the
   emitter only serializes the event and pushes the line onto a bounded
   queue; one background domain drains the queue into [send] (a wire
   frame write, possibly a blocking socket).  A full queue or a failed
   sender drops the line and counts the drop — the campaign always
   wins over the monitor.  [close] drains whatever is queued, then
   calls the caller's [close] (end frame + connection teardown). *)
let stream ?(capacity = 1024) ~send ~close:close_stream () =
  if capacity <= 0 then invalid_arg "Obs.Sink.stream: capacity must be positive";
  let lock = Mutex.create () in
  let nonempty = Condition.create () in
  let queue : string Queue.t = Queue.create () in
  let closing = ref false in
  let failed = ref false in
  let dropped = ref 0 in
  let sender () =
    let rec loop () =
      Mutex.lock lock;
      while Queue.is_empty queue && not !closing do
        Condition.wait nonempty lock
      done;
      let batch = Queue.create () in
      Queue.transfer queue batch;
      let stop = !closing && Queue.is_empty batch in
      Mutex.unlock lock;
      Queue.iter
        (fun line ->
          if not !failed then
            try send line
            with _ ->
              (* the monitor went away: latch the failure and count the
                 rest as drops rather than erroring the campaign *)
              failed := true;
              Mutex.lock lock;
              dropped := !dropped + 1;
              Mutex.unlock lock
          else begin
            Mutex.lock lock;
            dropped := !dropped + 1;
            Mutex.unlock lock
          end)
        batch;
      if not stop then loop ()
    in
    loop ()
  in
  let domain = Domain.spawn sender in
  let emit j =
    let line = Json.to_string j in
    Mutex.lock lock;
    if !closing || Queue.length queue >= capacity then incr dropped
    else begin
      Queue.push line queue;
      Condition.signal nonempty
    end;
    Mutex.unlock lock
  in
  let close () =
    let already =
      Mutex.lock lock;
      let was = !closing in
      closing := true;
      Condition.signal nonempty;
      Mutex.unlock lock;
      was
    in
    if not already then begin
      Domain.join domain;
      if not !failed then try close_stream () with _ -> failed := true
    end
  in
  let dropped_count () =
    Mutex.lock lock;
    let n = !dropped in
    Mutex.unlock lock;
    n
  in
  (Emit { emit; close }, dropped_count)

(* --- flight recorder ring --------------------------------------------------- *)

(* Fixed-size ring over already-built events: recording costs one lock
   and two array writes, no serialization, no I/O — cheap enough to
   leave armed for a whole fuzz trial.  The dump renders the retained
   tail as JSONL with a header naming capacity and the true total, so
   a triage reader knows how much history was lost to wraparound. *)
type ring = {
  rg_lock : Mutex.t;
  rg_slots : Json.t option array;
  mutable rg_next : int;
  mutable rg_total : int;
}

let ring ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Obs.Sink.ring: capacity must be positive";
  let r = { rg_lock = Mutex.create (); rg_slots = Array.make capacity None; rg_next = 0; rg_total = 0 } in
  let emit j =
    Mutex.lock r.rg_lock;
    r.rg_slots.(r.rg_next) <- Some j;
    r.rg_next <- (r.rg_next + 1) mod Array.length r.rg_slots;
    r.rg_total <- r.rg_total + 1;
    Mutex.unlock r.rg_lock
  in
  (Emit { emit; close = (fun () -> ()) }, r)

let ring_total r =
  Mutex.lock r.rg_lock;
  let n = r.rg_total in
  Mutex.unlock r.rg_lock;
  n

let ring_contents r =
  Mutex.lock r.rg_lock;
  let cap = Array.length r.rg_slots in
  let acc = ref [] in
  (* newest-to-oldest walk backwards from the write cursor, then
     reverse: yields oldest-first without tracking a separate start *)
  for i = 1 to cap do
    match r.rg_slots.((r.rg_next - i + (2 * cap)) mod cap) with
    | Some j -> acc := j :: !acc
    | None -> ()
  done;
  Mutex.unlock r.rg_lock;
  !acc

let ring_dump r path =
  let events = ring_contents r in
  let total = ring_total r in
  match open_out path with
  | exception Sys_error msg ->
      failwith (Printf.sprintf "Obs.Sink.ring_dump: cannot write %s: %s" path msg)
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("v", Json.Int 1);
                    ("ev", Json.String "flight");
                    ("capacity", Json.Int (Array.length r.rg_slots));
                    ("total", Json.Int total);
                  ]));
          output_char oc '\n';
          List.iter
            (fun j ->
              output_string oc (Json.to_string j);
              output_char oc '\n')
            events)
