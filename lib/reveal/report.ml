(* The JSON half of every document is an [Obs.Json.t]: the codec lives
   in the observability layer, which sits below this one and needs it
   first. *)

(* --- documents ------------------------------------------------------------ *)

type doc = { text : string; json : Obs.Json.t }

(* --- column combinators --------------------------------------------------- *)

(* One declaration drives both renderers: [heading]/[cell] reproduce
   the historical fixed-width text (headings carry their own leading
   spaces so the concatenation is byte-exact), [key]/[value] the JSON
   row objects. *)
type 'a column = {
  heading : string;
  cell : 'a -> string;
  key : string;
  value : 'a -> Obs.Json.t;
}

let column ~heading ~key ~cell ~value = { heading; cell; key; value }

let fcol ~heading ~key ~fmt get = { heading; cell = (fun r -> Printf.sprintf fmt (get r)); key; value = (fun r -> Obs.Json.Float (get r)) }
let icol ~heading ~key ~fmt get = { heading; cell = (fun r -> Printf.sprintf fmt (get r)); key; value = (fun r -> Obs.Json.Int (get r)) }
let scol ~heading ~key ~fmt get = { heading; cell = (fun r -> Printf.sprintf fmt (get r)); key; value = (fun r -> Obs.Json.String (get r)) }

let row_json columns r = Obs.Json.Obj (List.map (fun c -> (c.key, c.value r)) columns)

let table ~title ?header ?(footer = "") columns rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf title;
  (match header with
  | Some h -> Buffer.add_string buf h
  | None ->
      List.iter (fun c -> Buffer.add_string buf c.heading) columns;
      Buffer.add_char buf '\n');
  List.iter
    (fun r ->
      List.iter (fun c -> Buffer.add_string buf (c.cell r)) columns;
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf footer;
  { text = Buffer.contents buf; json = Obs.Json.List (List.map (row_json columns) rows) }
