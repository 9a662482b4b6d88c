type signature =
  | Branches of bool list
  | Addresses of int list
  | Bus_values of int list
  | Counts of { hits : int; retired : int; cycles : int }

let signature_of kind ~addr (events : Riscv.Trace.event array) =
  let at = List.filter (fun e -> e.Riscv.Trace.pc = addr) (Array.to_list events) in
  match kind with
  | Finding.Secret_branch ->
      Branches (List.map (fun e -> e.Riscv.Trace.klass = Riscv.Inst.K_branch_taken) at)
  | Finding.Secret_mem_addr -> Addresses (List.filter_map (fun e -> e.Riscv.Trace.mem_addr) at)
  | Finding.Secret_bus -> Bus_values (List.filter_map (fun e -> e.Riscv.Trace.mem_value) at)
  | Finding.Secret_count ->
      let cycles =
        match Array.length events with
        | 0 -> 0
        | n -> events.(n - 1).Riscv.Trace.cycle + events.(n - 1).Riscv.Trace.cycles
      in
      Counts { hits = List.length at; retired = Array.length events; cycles }

let render_signature = function
  | Branches bs ->
      Printf.sprintf "[%s]" (String.concat "" (List.map (fun b -> if b then "T" else "n") bs))
  | Addresses l -> Printf.sprintf "[%s]" (String.concat ";" (List.map (Printf.sprintf "0x%x") l))
  | Bus_values l -> Printf.sprintf "[%s]" (String.concat ";" (List.map (Printf.sprintf "0x%x") l))
  | Counts { hits; retired; cycles } -> Printf.sprintf "%d hits, %d retired, %d cycles" hits retired cycles

(* sign, magnitude and zero/non-zero distinguishers, all within every
   sampler variant's range *)
let pairs = [ (3, -3); (1, 2); (0, 1) ]

let confirm_with cache ~run (f : Finding.t) =
  let events secret =
    match Hashtbl.find_opt cache secret with
    | Some ev -> ev
    | None ->
        let ev = run ~secret in
        Hashtbl.replace cache secret ev;
        ev
  in
  let rec try_pairs = function
    | [] -> { f with Finding.confirmation = Finding.Static_only }
    | (lo, hi) :: rest ->
        let sa = signature_of f.Finding.kind ~addr:f.Finding.addr (events lo) in
        let sb = signature_of f.Finding.kind ~addr:f.Finding.addr (events hi) in
        if sa <> sb then
          {
            f with
            Finding.confirmation =
              Finding.Confirmed
                {
                  Finding.secret_lo = lo;
                  secret_hi = hi;
                  evidence = Printf.sprintf "%s vs %s" (render_signature sa) (render_signature sb);
                };
          }
        else try_pairs rest
  in
  try_pairs pairs

let confirm ~run f = confirm_with (Hashtbl.create 8) ~run f

let confirm_all ~run findings =
  let cache = Hashtbl.create 8 in
  List.map (confirm_with cache ~run) findings
