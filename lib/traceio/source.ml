(* A pulled record is decoded by whoever consumes it, on its own
   domain, under the stream's corruption policy. *)
type pulled = { frame : Archive.frame; strict : bool }
type event = [ `Record of pulled | `Skipped of string | `End_of_archive ]
type event_fv = event

type t = { name : string; next : unit -> event; close : unit -> unit }

let name t = t.name
let next t = t.next ()
let next_fv = next
let close t = t.close ()

let decode p ~into =
  Fun.protect
    ~finally:(fun () -> Archive.recycle p.frame)
    (fun () ->
      if p.strict then `Record (Archive.decode_into p.frame ~into) else Archive.try_decode_into p.frame ~into)

let of_archive ?(strict = false) ?obs path =
  let reader = Archive.open_reader ?obs path in
  let next () = match Archive.pull reader with Some frame -> `Record { frame; strict } | None -> `End_of_archive in
  { name = path; next; close = (fun () -> Archive.close_reader reader) }

let make_fv ~name ~next:_ ~next_fv ~close = { name; next = next_fv; close }
