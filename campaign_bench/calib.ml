(* The reference computation that timed setups and campaigns are scaled
   by.  On a shared VM the processor runs up to ~1.5 times slower for
   stretches of seconds to minutes, and process CPU time slows with the
   wall-clock, so a slow stretch cannot be told from slow code by timing
   the code alone.  This fixed piece of work, owned by the benchmark and
   calling no library code, is timed right before and right after every
   timed item; the item's time is then scaled to a machine on which the
   reference takes [nominal_s].  A change to the library moves the
   item's time and not the reference's, so it moves the scaled time by
   the same share; a slow stretch moves both, so it largely cancels.

   The work mixes what a campaign does: Gaussian draws from an integer
   generator (noise synthesis and fault injection), float64 encode and
   decode through a byte buffer (archive decode), dot products over a
   matrix larger than the L2 cache (template scoring) and a branchy
   table-driven integer loop (instruction-set simulation). *)

open Bigarray

let n = 1 lsl 15
let rows = 32
let rounds = 24

(* the reference's time on the 2-vCPU VM the benchmark was written on,
   at full speed, so that scaled times read close to that machine's
   wall-clock *)
let nominal_s = 0.085

type buffers = {
  v : (float, float64_elt, c_layout) Array1.t;
  m : (float, float64_elt, c_layout) Array2.t;
  b : Bytes.t;
  prog : int array;
}

let buffers =
  lazy
    (let m = Array2.create float64 c_layout rows n in
     for r = 0 to rows - 1 do
       for i = 0 to n - 1 do
         m.{r, i} <- float_of_int (((r * 7919) + (i * 104729)) mod 1021) /. 1021.0
       done
     done;
     {
       v = Array1.create float64 c_layout n;
       m;
       b = Bytes.create (8 * n);
       prog = Array.init 4096 (fun i -> (i * 2654435761) land 0xFFFF);
     })

let xorshift x =
  let x = x lxor ((x lsl 13) land max_int) in
  let x = x lxor (x lsr 7) in
  x lxor ((x lsl 17) land max_int)

let round { v; m; b; prog } seed =
  let x = ref seed in
  for i = 0 to n - 1 do
    x := xorshift !x;
    let u1 = (float_of_int (!x land 0xFFFFFF) +. 1.0) /. 16777217.0 in
    x := xorshift !x;
    let u2 = float_of_int (!x land 0xFFFFFF) /. 16777216.0 in
    v.{i} <- sqrt (-2.0 *. log u1) *. cos (6.283185307179586 *. u2)
  done;
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v.{i})
  done;
  for i = 0 to n - 1 do
    v.{i} <- Int64.float_of_bits (Bytes.get_int64_le b (8 * i))
  done;
  let dots = ref 0.0 in
  for r = 0 to rows - 1 do
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (m.{r, i} *. v.{i})
    done;
    dots := !dots +. !acc
  done;
  let acc = ref !x and pc = ref 0 in
  for _ = 1 to 4 * n do
    let op = prog.(!pc) in
    (match op land 7 with
    | 0 -> acc := !acc + op
    | 1 -> acc := !acc lxor op
    | 2 -> acc := !acc - (op lsr 3)
    | 3 -> acc := (!acc lsl 1) land max_int
    | 4 -> acc := !acc lsr 1
    | 5 -> acc := !acc + (!acc land op)
    | 6 -> acc := !acc lor (op lsl 2)
    | _ -> acc := !acc * 3);
    pc := (!pc + 1 + (!acc land 3)) land 4095
  done;
  (!dots, !acc)

(* One run of the reference: a checksum that is the same on every run,
   and its wall-clock. *)
let run () =
  let bufs = Lazy.force buffers in
  Probe.time (fun () ->
      let sum = ref 0.0 and bits = ref 0 in
      for k = 1 to rounds do
        let d, a = round bufs (k * 0x9E3779B1) in
        sum := !sum +. d;
        bits := !bits lxor a
      done;
      (!sum, !bits))

(* Runs of the reference between two timed items. *)
let per_gap = 3

type t = {
  checksum : float * int;
  mutable last : float list;  (** the runs since the last timed item *)
  mutable times : float list;  (** every recorded run, newest first *)
  mutable ok : bool;  (** every run gave the first run's checksum *)
}

let sample t =
  t.last <-
    List.init per_gap (fun _ ->
        let sum, dt = run () in
        if sum <> t.checksum then t.ok <- false;
        t.times <- dt :: t.times;
        dt)

(* A first, unrecorded run fills the buffers and gives the checksum;
   the runs after it precede the first timed item. *)
let create () =
  let checksum, _ = run () in
  let t = { checksum; last = []; times = []; ok = true } in
  sample t;
  t

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Scale [dt], the wall-clock of a timed item that has just ended, by
   [nominal_s] over the mean reference time on both sides of it; the
   runs after it are made here.  Slow stretches mostly last longer than
   a timed item, so the runs next to an item measure the speed it ran
   at. *)
let scale t dt =
  let before = t.last in
  sample t;
  dt *. nominal_s /. mean (before @ t.last)
