(* Self-time accounting over the span records an [Obs.Ctx] wrote into a
   memory sink.  The traced run is single-domain, so span_begin and
   span_end records nest like brackets; a span's self time is its
   duration minus the durations of its direct children. *)

module M = Map.Make (String)

type stat = { self : float; total : float; count : int }

let zero = { self = 0.0; total = 0.0; count = 0 }

let field_string key j = Option.bind (Obs.Json.member key j) Obs.Json.to_string_opt
let field_float key j = Option.bind (Obs.Json.member key j) Obs.Json.to_float_opt

let analyse records =
  let stack = ref [] in
  let acc = ref M.empty in
  List.iter
    (fun j ->
      match (field_string "ev" j, field_string "name" j) with
      | Some "span_begin", Some name -> stack := (name, ref 0.0) :: !stack
      | Some "span_end", Some name -> (
          let dur = Option.value ~default:0.0 (field_float "dur" j) in
          match !stack with
          | (open_name, children) :: rest when open_name = name ->
              stack := rest;
              (match rest with (_, parent) :: _ -> parent := !parent +. dur | [] -> ());
              let s = Option.value ~default:zero (M.find_opt name !acc) in
              acc :=
                M.add name { self = s.self +. dur -. !children; total = s.total +. dur; count = s.count + 1 } !acc
          | _ -> failwith ("campaign_bench: unbalanced span records at " ^ name))
      | _ -> ())
    records;
  if !stack <> [] then failwith "campaign_bench: unclosed spans in the trace";
  !acc

let get t name = Option.value ~default:zero (M.find_opt name t)
let self t names = List.fold_left (fun acc n -> acc +. (get t n).self) 0.0 names
let total t name = (get t name).total
