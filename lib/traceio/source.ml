type event = [ `Record of Archive.record | `Skipped of string | `End_of_archive ]
type event_fv = event

type t = { name : string; next : unit -> event; close : unit -> unit }

let name t = t.name
let next t = t.next ()
let next_fv = next
let close t = t.close ()

let of_archive ?(strict = false) ?obs path =
  let reader = Archive.open_reader ?obs path in
  let next () =
    if strict then match Archive.next reader with Some r -> `Record r | None -> `End_of_archive
    else Archive.try_next reader
  in
  { name = path; next; close = (fun () -> Archive.close_reader reader) }

let make_fv ~name ~next:_ ~next_fv ~close = { name; next = next_fv; close }
