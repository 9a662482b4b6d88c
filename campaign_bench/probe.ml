(* Measurement reads.  The wall clock, the GC allocation counter and the
   process's peak resident set are the benchmark's only nondeterministic
   inputs; they live here so that everything else is a pure function of
   the workload seed.  No reading ever feeds a result or a digest. *)

(* srclint: allow nondet-source the benchmark timer; a reading is reported, never fed into a result *)
let now () = Unix.gettimeofday ()

(* Words allocated on the minor heap so far (GC counter read). *)
let minor_words () = Gc.minor_words ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* VmHWM of /proc/self/status: the process's peak resident set, in kB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "campaign_bench: no VmHWM line in /proc/self/status"
      in
      scan ())

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Probe.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a non-empty sample. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Probe.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))
