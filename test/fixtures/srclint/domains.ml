(* Planted Domain.spawn capture hazards for srclint's rule 3.  The
   finding anchors at the mutation inside the closure, so the expect
   sits directly above that line. *)

let counter = ref 0
let tbl : (int, int) Hashtbl.t = Hashtbl.create 8
let m = Mutex.create ()

(* srclint: expect domain-capture *)
let _racy () = Domain.spawn (fun () -> incr counter)

(* srclint: expect domain-capture *)
let _racy_tbl () = Domain.spawn (fun () -> Hashtbl.replace tbl 1 2)

(* Suppressed: single producer by construction, and the allow says so. *)
(* srclint: allow domain-capture only one domain ever writes this ref *)
let _solo () = Domain.spawn (fun () -> incr counter)

(* Negatives: a synchronizer in the closure, or nothing mutable at all. *)
let _locked () =
  Domain.spawn (fun () ->
      Mutex.lock m;
      incr counter;
      Mutex.unlock m)

let _pure () = Domain.spawn (fun () -> 1 + 1)

(* A module-level lazy is shared by every domain: two forcing it at once
   race to CamlinternalLazy.Undefined.  Built per call, it is not. *)
(* srclint: expect domain-capture *)
let _squares = lazy (Array.init 256 (fun i -> i * i))

let _per_call () = lazy (Array.init 256 (fun i -> i * i))
