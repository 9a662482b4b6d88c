type t = {
  labels : int array;
  index : (int, int) Hashtbl.t;
  counts : int array array;  (** counts.(predicted).(actual) *)
}

let create ~labels =
  let index = Hashtbl.create (Array.length labels) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  if Hashtbl.length index <> Array.length labels then invalid_arg "Confusion.create: duplicate labels";
  let n = Array.length labels in
  { labels = Array.copy labels; index; counts = Array.make_matrix n n 0 }

let idx t label =
  match Hashtbl.find_opt t.index label with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Confusion: unknown label %d" label)

let add t ~actual ~predicted =
  let a = idx t actual and p = idx t predicted in
  t.counts.(p).(a) <- t.counts.(p).(a) + 1

let count t ~actual ~predicted = t.counts.(idx t predicted).(idx t actual)

let column_total t a =
  let acc = ref 0 in
  Array.iter (fun row -> acc := !acc + row.(a)) t.counts;
  !acc

let column_percent t ~actual ~predicted =
  let a = idx t actual in
  let col = column_total t a in
  if col = 0 then 0.0 else 100.0 *. float_of_int (count t ~actual ~predicted) /. float_of_int col

let render t =
  let shown = Array.to_list t.labels |> List.filter (fun l -> l >= -7 && l <= 7) |> Array.of_list in
  Array.sort compare shown;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "      ";
  Array.iter (fun a -> Buffer.add_string buf (Printf.sprintf "%7d" a)) shown;
  Buffer.add_string buf "   <- actual\n";
  Array.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "%5d " p);
      Array.iter
        (fun a ->
          let pct = column_percent t ~actual:a ~predicted:p in
          if pct = 0.0 then Buffer.add_string buf "      0"
          else Buffer.add_string buf (Printf.sprintf "%7.1f" pct))
        shown;
      Buffer.add_char buf '\n')
    shown;
  Buffer.contents buf
