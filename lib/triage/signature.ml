(* Stable fingerprints for verdicts, and the known-signatures file
   that separates "new bug" from "known bug" (the pquery-run
   known_bugs.strings idea).  A signature is built from typed scenario
   and verdict fields only — never trial ids, seeds, counts, paths or
   log text — so the same bug found under different seeds, on a
   different machine, or with noisier logs fingerprints identically. *)

module S = Set.Make (String)

let of_verdict t v =
  Printf.sprintf "%s variant=%s gate=%s intensity=%g detail=%s" (Verdict.kind v)
    (Plan.variant_to_string t.Plan.variant)
    (Plan.gate_to_string t.Plan.gate)
    t.Plan.intensity (Verdict.detail v)

type store = S.t

let empty = S.empty
let mem store s = S.mem s store
let add store s = S.add s store
let of_list l = List.fold_left add empty l
let to_list store = S.elements store
let size = S.cardinal

let trim s =
  let is_space c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let lo = ref 0 and hi = ref n in
  while !lo < n && is_space s.[!lo] do incr lo done;
  while !hi > !lo && is_space s.[!hi - 1] do decr hi done;
  String.sub s !lo (!hi - !lo)

(* One signature per line; blank lines and '#' comments for humans. *)
let load path =
  let ic = Traceio.Error.open_in_bin path in
  Fun.protect
    ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
    (fun () ->
      let store = ref empty in
      (try
         while true do
           let line = trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then store := add !store line
         done
       with End_of_file -> ());
      !store)

let load_opt path = if Sys.file_exists path then load path else empty

let append path sigs =
  Traceio.Error.wrap_io path (fun () ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> List.iter (fun s -> output_string oc (s ^ "\n")) sigs))
