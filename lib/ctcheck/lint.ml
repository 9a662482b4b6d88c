module S = Riscv.Sampler_prog

let sampler_config =
  Taint.config
    ~secret_mmio:(fun a -> a = S.noise_port || a = S.uniform_port || a = S.sign_port)
    ~region_bases:
      [
        S.default_layout.S.moduli_base;
        S.default_layout.S.perm_base;
        S.cdt_base;
        S.default_layout.S.poly_base;
      ]

(* --- class 3: path imbalance under a secret branch ---------------------- *)

(* Per-block execution cost along a specific outgoing edge: a branch
   terminator costs taken or not-taken cycles depending on the edge
   (only the last instruction of a block can be a branch). *)
let block_cost ~cycles (b : Cfg.block) ~succ =
  let n = Array.length b.Cfg.insts in
  if not cycles then n
  else begin
    let edge_taken =
      match b.Cfg.term with
      | Cfg.Branch { taken; not_taken } -> not (succ = not_taken && succ <> taken)
      | _ -> true
    in
    let total = ref 0 in
    Array.iteri
      (fun i (_, inst) ->
        let taken = if i = n - 1 then edge_taken else true in
        total := !total + Riscv.Cpu.cycles_of_class (Riscv.Inst.classify ~taken inst))
      b.Cfg.insts;
    !total
  end

(* Dijkstra over block starts; distance to a block m = cost of executing
   everything strictly before m on the cheapest path from [src]. *)
let distances cfg ~cycles src =
  let dist = Hashtbl.create 32 in
  Hashtbl.replace dist src 0;
  let frontier = ref [ (0, src) ] in
  let pop () =
    match List.sort compare !frontier with
    | [] -> None
    | (d, a) :: rest ->
        frontier := rest;
        Some (d, a)
  in
  let rec loop () =
    match pop () with
    | None -> ()
    | Some (d, a) ->
        if Hashtbl.find dist a = d then begin
          match Cfg.block cfg a with
          | b ->
              List.iter
                (fun s ->
                  let d' = d + block_cost ~cycles b ~succ:s in
                  match Hashtbl.find_opt dist s with
                  | Some old when old <= d' -> ()
                  | _ ->
                      Hashtbl.replace dist s d';
                      frontier := (d', s) :: !frontier)
                b.Cfg.succs
          | exception Not_found -> ()
        end;
        loop ()
  in
  loop ();
  dist

let imbalance_findings cfg facts =
  let secret_branch_addrs =
    List.filter_map (fun (f : Taint.fact) -> if f.Taint.secret_branch then Some f.Taint.addr else None) facts
  in
  let findings =
    List.filter_map
      (fun (b : Cfg.block) ->
        match b.Cfg.term with
        | Cfg.Branch { taken; not_taken }
          when Array.length b.Cfg.insts > 0
               && List.mem (fst b.Cfg.insts.(Array.length b.Cfg.insts - 1)) secret_branch_addrs -> (
            let di_t = distances cfg ~cycles:false taken and di_n = distances cfg ~cycles:false not_taken in
            let dc_t = distances cfg ~cycles:true taken and dc_n = distances cfg ~cycles:true not_taken in
            (* merge point: common reachable block minimizing the summed
               instruction distance (ties to the lowest address) *)
            let merge =
              Hashtbl.fold (fun m dt acc -> (m, dt) :: acc) di_t []
              |> List.sort compare
              |> List.fold_left
                   (fun best (m, dt) ->
                     match Hashtbl.find_opt di_n m with
                     | None -> best
                     | Some dn -> (
                         match best with
                         | Some (_, s) when s < dt + dn -> best
                         | Some (bm, s) when s = dt + dn && bm < m -> best
                         | _ -> Some (m, dt + dn)))
                   None
            in
            let anchor_block side = try Some (Cfg.block cfg side) with Not_found -> None in
            let mk side detail =
              match anchor_block side with
              | Some ab when Array.length ab.Cfg.insts > 0 ->
                  let addr, inst = ab.Cfg.insts.(0) in
                  Some { Finding.kind = Finding.Secret_count; addr; inst; detail; confirmation = Finding.Static_only }
              | _ -> None
            in
            match merge with
            | None -> mk not_taken "secret branch: successor paths never rejoin"
            | Some (m, _) ->
                let it = Hashtbl.find di_t m and inn = Hashtbl.find di_n m in
                let ct = try Hashtbl.find dc_t m with Not_found -> 0
                and cn = try Hashtbl.find dc_n m with Not_found -> 0 in
                if it = inn && ct = cn then None
                else
                  let side = if it <> inn then (if it > inn then taken else not_taken) else if ct > cn then taken else not_taken in
                  mk side
                    (Printf.sprintf "secret branch at 0x%x: paths rejoin at 0x%x after %d vs %d instructions (%d vs %d cycles)"
                       (fst b.Cfg.insts.(Array.length b.Cfg.insts - 1))
                       m it inn ct cn))
        | _ -> None)
      (Cfg.blocks cfg)
  in
  (* An anchor that is itself a flagged secret branch is the same leak
     seen twice (the ladder's second blt): keep the branch finding. *)
  let findings = List.filter (fun f -> not (List.mem f.Finding.addr secret_branch_addrs)) findings in
  List.sort_uniq Finding.compare findings

(* --- static analysis ----------------------------------------------------- *)

let findings_of_result (r : Taint.result) =
  let direct =
    List.concat_map
      (fun (f : Taint.fact) ->
        let mk kind detail =
          { Finding.kind; addr = f.Taint.addr; inst = f.Taint.inst; detail; confirmation = Finding.Static_only }
        in
        (if f.Taint.secret_branch then [ mk Finding.Secret_branch "branch condition is secret-tainted" ] else [])
        @ (if f.Taint.secret_addr then [ mk Finding.Secret_mem_addr "memory address is secret-tainted" ] else [])
        @ if f.Taint.secret_bus then [ mk Finding.Secret_bus "secret datum crosses the memory bus" ] else [])
      r.Taint.facts
  in
  List.sort Finding.compare (direct @ imbalance_findings r.Taint.cfg r.Taint.facts)

let analyze_program p = findings_of_result (Taint.analyze sampler_config p)

(* --- differential-oracle execution --------------------------------------- *)

(* Wide staged modulus: the high word of q - |noise| is nonzero, so the
   hi-word stores of the negative path carry a usable witness (the
   default test modulus has an all-zero high word). *)
let oracle_q = (1 lsl 45) + 9

let run_variant ~n ~k variant ~secret =
  let p = S.build ~variant ~n ~k () in
  let layout = S.default_layout in
  let mem = Riscv.Memory.create layout.S.ram_size in
  Riscv.Memory.load_program mem 0 p.Riscv.Asm.words;
  S.stage_moduli mem layout (Array.make k oracle_q);
  (match variant with
  | S.Shuffled -> S.stage_permutation mem layout (Array.init n (fun i -> i))
  | S.Cdt_table ->
      let sigma = Mathkit.Gaussian.seal_default.Mathkit.Gaussian.sigma in
      S.stage_cdt_table mem (S.cdt_thresholds ~sigma);
      let rng = Mathkit.Prng.create ~seed:7L () in
      S.install_cdt_port mem ~draws:(Array.init n (fun _ -> S.cdt_force_draw rng ~sigma ~value:secret))
  | S.Vulnerable | S.Branchless -> ());
  (match variant with
  | S.Cdt_table -> ()
  | _ -> S.install_noise_port mem ~draws:(Array.make n (secret, 2)));
  let recorder = Riscv.Trace.recorder () in
  let cpu = Riscv.Cpu.create ~tracer:(Riscv.Trace.record recorder) mem in
  ignore (Riscv.Cpu.run ~max_steps:(100_000 + (4096 * n * k)) cpu);
  Riscv.Trace.events recorder

type report = {
  variant : S.variant;
  program : Riscv.Asm.program;
  cfg : Cfg.t;
  findings : Finding.t list;
  confirmed : bool;
}

let analyze_variant ?(n = 1) ?(k = 1) ?(confirm = true) variant =
  let p = S.build ~variant ~n ~k () in
  let result = Taint.analyze sampler_config p in
  let findings = findings_of_result result in
  let cfg = result.Taint.cfg in
  let findings =
    if confirm then Oracle.confirm_all ~run:(fun ~secret -> run_variant ~n ~k variant ~secret) findings else findings
  in
  { variant; program = p; cfg; findings; confirmed = confirm }

let violations r = List.filter Finding.is_violation r.findings

(* --- the expected verdict table ------------------------------------------ *)

(* Derived structurally from the decoded words so any drift between the
   firmware, the analyzer and the paper's taxonomy is caught:
   - v3.2 ladder (Vulnerable, Shuffled): the two [blt]s on the noise
     register t0, the unbalanced negation path at "neg_branch", the
     noise-port load and the four coefficient stores;
   - Branchless: bus traffic only (noise load, two stores);
   - CDT: the residual sign branch [beq a1, x0], its negation
     [sub a0, x0, a0], the two entropy-port loads and two stores. *)
let expected_findings (p : Riscv.Asm.program) variant =
  let open Riscv.Inst in
  let t0 = t 0 and s4 = s 4 and a0 = a 0 and a1 = a 1 in
  let insts =
    Array.to_list (Array.mapi (fun i w -> (4 * i, Riscv.Codec.decode w)) p.Riscv.Asm.words)
  in
  let where pred kind = List.filter_map (fun (addr, i) -> if pred i then Some (kind, addr) else None) insts in
  let stores = where (function Sw (rs2, _, _) -> rs2 <> x0 | _ -> false) Finding.Secret_bus in
  match variant with
  | S.Vulnerable | S.Shuffled ->
      where (function Blt (r1, r2, _) -> r1 = t0 || r2 = t0 | _ -> false) Finding.Secret_branch
      @ [ (Finding.Secret_count, Riscv.Asm.label_address p "neg_branch") ]
      @ where (function Lw (_, b, 0) -> b = s4 | _ -> false) Finding.Secret_bus
      @ stores
  | S.Branchless -> where (function Lw (_, b, 0) -> b = s4 | _ -> false) Finding.Secret_bus @ stores
  | S.Cdt_table ->
      where (function Beq (r1, r2, _) -> r1 = a1 && r2 = x0 | _ -> false) Finding.Secret_branch
      @ where (function Sub (rd, r1, r2) -> rd = a0 && r1 = x0 && r2 = a0 | _ -> false) Finding.Secret_count
      @ where (function Lw (_, b, imm) -> b = s4 && (imm = 8 || imm = 12) | _ -> false) Finding.Secret_bus
      @ stores

let check r =
  let actual = List.map (fun f -> (f.Finding.kind, f.Finding.addr)) r.findings in
  let expected = expected_findings r.program r.variant in
  let sort = List.sort_uniq compare in
  let actual_s = sort actual and expected_s = sort expected in
  let missing = List.filter (fun e -> not (List.mem e actual_s)) expected_s in
  let spurious = List.filter (fun a -> not (List.mem a expected_s)) actual_s in
  let describe (kind, addr) = Printf.sprintf "%s at 0x%08x" (Finding.kind_name kind) addr in
  List.map (fun e -> "missing expected finding: " ^ describe e) missing
  @ List.map (fun a -> "finding not in the verdict table: " ^ describe a) spurious
  @
  if r.confirmed then
    List.filter_map
      (fun f ->
        if Finding.is_confirmed f then None
        else Some (Printf.sprintf "no differential witness for %s at 0x%08x" (Finding.kind_name f.Finding.kind) f.Finding.addr))
      r.findings
  else []

(* --- rendering ------------------------------------------------------------ *)

let variant_label = function
  | S.Vulnerable -> "v3.2 ladder (vulnerable)"
  | S.Branchless -> "v3.6 branchless"
  | S.Shuffled -> "v3.2 ladder + shuffling"
  | S.Cdt_table -> "constant-time CDT"

let render ?(verbose = false) r =
  let buf = Buffer.create 1024 in
  let count pred = List.length (List.filter pred r.findings) in
  Buffer.add_string buf
    (Printf.sprintf "leaklint: %s, %d instructions, %d basic blocks, %d loop back-edges\n" (variant_label r.variant)
       (Array.length r.program.Riscv.Asm.words)
       (List.length (Cfg.blocks r.cfg))
       (List.length (Cfg.back_edges r.cfg)));
  List.iter
    (fun f ->
      Buffer.add_string buf ("  " ^ Finding.to_string f);
      Buffer.add_char buf '\n')
    r.findings;
  let nviol = count Finding.is_violation in
  let nsurf = List.length r.findings - nviol in
  Buffer.add_string buf
    (if nviol = 0 then
       Printf.sprintf "verdict: CONSTANT-TIME (%d leak-surface note%s)\n" nsurf (if nsurf = 1 then "" else "s")
     else
       Printf.sprintf "verdict: NOT CONSTANT-TIME (%d violation%s, %d leak-surface note%s)\n" nviol
         (if nviol = 1 then "" else "s")
         nsurf
         (if nsurf = 1 then "" else "s"));
  if verbose then begin
    Buffer.add_string buf "\n";
    let by_addr = Hashtbl.create 16 in
    List.iter (fun f -> Hashtbl.add by_addr f.Finding.addr f) r.findings;
    List.iter
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        (* instruction lines start with the hex address; label lines
           carry the same address in angle brackets — skip those *)
        match
          if String.contains line '<' then None
          else int_of_string_opt ("0x" ^ String.trim (List.hd (String.split_on_char ':' line)))
        with
        | Some addr ->
            List.iter
              (fun f ->
                Buffer.add_string buf
                  (Printf.sprintf "          ^ %s (%s)\n" (Finding.kind_name f.Finding.kind)
                     (Finding.severity_name (Finding.severity f.Finding.kind))))
              (Hashtbl.find_all by_addr addr)
        | None -> ())
      r.program.Riscv.Asm.listing
  end;
  Buffer.contents buf
