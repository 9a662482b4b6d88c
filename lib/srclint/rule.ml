type t = Nondet_source | Hashtbl_order | Domain_capture | Exn_message | Unsafe_index

let all = [ Nondet_source; Hashtbl_order; Domain_capture; Exn_message; Unsafe_index ]

let name = function
  | Nondet_source -> "nondet-source"
  | Hashtbl_order -> "hashtbl-order"
  | Domain_capture -> "domain-capture"
  | Exn_message -> "exn-message"
  | Unsafe_index -> "unsafe-index"

let of_name s = List.find_opt (fun r -> name r = s) all
