(* Concrete Pipeline.SOURCE instances.  The live source pre-draws one
   (scope, sampler) seed pair per trace from the campaign generators —
   at construction time, in trace order — so the randomness a campaign
   consumes is independent of batching, domain count, or how far the
   driver actually pulls. *)

let live_item device index (scope_seed, sampler_seed) =
  {
    Pipeline.index;
    acquire =
      (fun () ->
        let scope_rng = Mathkit.Prng.create ~seed:scope_seed () in
        let sampler_rng = Mathkit.Prng.create ~seed:sampler_seed () in
        let run = Device.run_gaussian device ~scope_rng ~sampler_rng in
        (* The retry stream is carved from a separate generator, so a
           trace that needs no retries consumes its randomness exactly
           like one that does. *)
        let retry_master = Mathkit.Prng.create ~seed:(Int64.logxor scope_seed Constants.retry_seed_salt) () in
        let remeasure _attempt =
          let rng = Mathkit.Prng.split retry_master in
          let draws = Array.map (fun v -> Device.profiling_draw device rng ~value:v) run.Device.noises in
          Mathkit.Fvec.of_array (Device.run device ~scope_rng:rng ~draws).Device.trace.Power.Ptrace.samples
        in
        {
          Pipeline.samples = Mathkit.Fvec.of_array run.Device.trace.Power.Ptrace.samples;
          noises = run.Device.noises;
          remeasure = Some remeasure;
        });
  }

(* The full campaign's seed table is always drawn, whatever slice is
   served: shard [lo,hi) of an N-trace campaign sees exactly the seeds
   trace lo..hi-1 would see in the single-process run, which is what
   makes the sharded merge bit-identical. *)
let device_live_range device ~traces ~lo ~hi ~scope_rng ~sampler_rng =
  if traces < 0 then invalid_arg "Source.device_live_range: negative trace count";
  if lo < 0 || hi < lo || hi > traces then
    invalid_arg (Printf.sprintf "Source.device_live_range: bad range [%d,%d) of %d traces" lo hi traces);
  let seeds = Array.init traces (fun _ -> (Mathkit.Prng.bits64 scope_rng, Mathkit.Prng.bits64 sampler_rng)) in
  let pos = ref lo in
  let module M = struct
    type t = unit

    let name = Printf.sprintf "device-live[%d,%d)" lo hi

    let next () =
      if !pos >= hi then `End
      else begin
        let i = !pos in
        incr pos;
        `Item (live_item device i seeds.(i))
      end

    let close () = ()
  end in
  Pipeline.Source ((module M), ())

let device_live device ~traces ~scope_rng ~sampler_rng =
  device_live_range device ~traces ~lo:0 ~hi:traces ~scope_rng ~sampler_rng

(* Replay items carry the record's samples in the decoder's own Fvec —
   no per-record boxed [float array] is ever materialised. *)
let item_of_record index (r : Traceio.Archive.record) =
  {
    Pipeline.index;
    acquire = (fun () -> { Pipeline.samples = r.Traceio.Archive.samples; noises = r.noises; remeasure = None });
  }

let of_trace_source stream =
  let pos = ref 0 in
  let module M = struct
    type t = unit

    let name = Traceio.Source.name stream

    let next () =
      match Traceio.Source.next stream with
      | `End_of_archive -> `End
      | `Skipped reason -> `Skip reason
      | `Record r ->
          let i = !pos in
          incr pos;
          `Item (item_of_record i r)

    let close () = Traceio.Source.close stream
  end in
  Pipeline.Source ((module M), ())

let archive_replay ?strict ?obs path = of_trace_source (Traceio.Source.of_archive ?strict ?obs path)
