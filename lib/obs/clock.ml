(* Two time sources behind one face: wall time for real runs,
   a logical tick counter for byte-reproducible golden output.
   Wall readings are monotonized (gettimeofday can step backwards
   under NTP) and rebased to the clock's creation so traces start
   near zero and never leak absolute timestamps. *)

type kind = Wall | Logical

type t = {
  kind : kind;
  origin : float;
  mutable last : float;  (* wall: highest reading handed out *)
  mutable ticks : int;  (* logical: next tick - 1 *)
  lock : Mutex.t;
}

(* srclint: allow nondet-source the Wall clock is the sanctioned wall-time source *)
let wall () = { kind = Wall; origin = Unix.gettimeofday (); last = 0.0; ticks = 0; lock = Mutex.create () }
let logical () = { kind = Logical; origin = 0.0; last = 0.0; ticks = 0; lock = Mutex.create () }

let kind_name c = match c.kind with Wall -> "wall" | Logical -> "logical"

let now c =
  Mutex.lock c.lock;
  let v =
    match c.kind with
    | Wall ->
        (* srclint: allow nondet-source the Wall clock is the sanctioned wall-time source *)
        let v = Unix.gettimeofday () -. c.origin in
        let v = if v > c.last then v else c.last in
        c.last <- v;
        v
    | Logical ->
        c.ticks <- c.ticks + 1;
        float_of_int c.ticks
  in
  Mutex.unlock c.lock;
  v
