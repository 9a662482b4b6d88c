type event = [ `Record of Archive.record | `Skipped of string | `End_of_archive ]
type event_fv = [ `Record of Archive.record_fv | `Skipped of string | `End_of_archive ]

type t = {
  name : string;
  next : unit -> event;
  next_fv : unit -> event_fv;
  close : unit -> unit;
}

let name t = t.name
let next t = t.next ()
let next_fv t = t.next_fv ()
let close t = t.close ()

let of_archive ?(strict = false) ?obs path =
  let reader = Archive.open_reader ?obs path in
  let next () =
    if strict then match Archive.next reader with Some r -> `Record r | None -> `End_of_archive
    else Archive.try_next reader
  in
  let next_fv () =
    if strict then match Archive.next_fv reader with Some r -> `Record r | None -> `End_of_archive
    else Archive.try_next_fv reader
  in
  { name = path; next; next_fv; close = (fun () -> Archive.close_reader reader) }

let make_fv ~name ~next ~next_fv ~close = { name; next; next_fv; close }
