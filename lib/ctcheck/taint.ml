module IntMap = Map.Make (Int)

type base = Const of int | Region of int | Any
type value = { base : base; secret : bool }

type config = { secret_mmio : int -> bool; region_bases : int list }

let config ~secret_mmio ~region_bases =
  { secret_mmio; region_bases = List.sort_uniq Int.compare (0 :: Riscv.Memory.mmio_base :: region_bases) }

type fact = { addr : int; inst : Riscv.Inst.t; secret_branch : bool; secret_addr : bool; secret_bus : bool }

type result = { cfg : Cfg.t; facts : fact list }

let u32 x = x land 0xFFFFFFFF

(* Largest declared base <= addr; total because 0 is always declared. *)
let region_of cfg addr = List.fold_left (fun acc b -> if b <= addr then b else acc) 0 cfg.region_bases

let public b = { base = b; secret = false }
let any_of secret = { base = Any; secret }

let join_base cfg a b =
  match (a, b) with
  | Const x, Const y when x = y -> Const x
  | Const x, Const y -> Region (region_of cfg (min x y))
  | Region r, Const c | Const c, Region r -> if region_of cfg c = r then Region r else Any
  | Region r, Region s -> if r = s then Region r else Any
  | Any, _ | _, Any -> Any

let join cfg a b = { base = join_base cfg a.base b.base; secret = a.secret || b.secret }

(* Address arithmetic on the base component. *)
let add_base cfg a b =
  match (a, b) with
  | Const x, Const y -> Const (u32 (x + y))
  | Region r, Const c | Const c, Region r -> Region (region_of cfg (u32 (r + c)))
  | Any, Const c | Const c, Any -> if List.mem c cfg.region_bases then Region c else Any
  | _ -> Any

let sub_base cfg a b =
  match (a, b) with
  | Const x, Const y -> Const (u32 (x - y))
  | Region r, Const c -> if r - c >= 0 then Region (region_of cfg (r - c)) else Any
  | _ -> Any

let shift_base a sh =
  match a with Const x -> Const (u32 (x lsl sh)) | Region 0 -> Region 0 | Region _ | Any -> Any

type state = { regs : value array; mem : value IntMap.t; escaped : value option }

let initial_state () = { regs = Array.make 32 (public (Const 0)); mem = IntMap.empty; escaped = None }

let join_opt cfg a b = match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (join cfg x y)

let join_state cfg a b =
  {
    regs = Array.init 32 (fun i -> join cfg a.regs.(i) b.regs.(i));
    mem = IntMap.union (fun _ x y -> Some (join cfg x y)) a.mem b.mem;
    escaped = join_opt cfg a.escaped b.escaped;
  }

let state_equal a b = a.regs = b.regs && IntMap.equal ( = ) a.mem b.mem && a.escaped = b.escaped

let set_reg st rd v =
  if rd = 0 then st
  else begin
    let regs = Array.copy st.regs in
    regs.(rd) <- v;
    { st with regs }
  end

(* What a load from a RAM region observes: everything the program ever
   stored there, plus anything stored through an unresolved pointer.
   Regions never written read back public: host-staged tables (moduli,
   CDT thresholds, permutations) are public inputs. *)
let mem_read cfg st b =
  let region r = match IntMap.find_opt r st.mem with Some v -> v | None -> public Any in
  let with_escape v = match st.escaped with None -> v | Some e -> join cfg v e in
  match b with
  | Const a -> with_escape (region (region_of cfg a))
  | Region r -> with_escape (region r)
  | Any -> with_escape (IntMap.fold (fun _ v acc -> join cfg v acc) st.mem (public Any))

let mem_write cfg st b v =
  let into r = { st with mem = IntMap.update r (function None -> Some v | Some old -> Some (join cfg old v)) st.mem } in
  match b with
  | Const a when a >= Riscv.Memory.mmio_base -> st (* MMIO store: no RAM effect *)
  | Const a -> into (region_of cfg a)
  | Region r when r >= Riscv.Memory.mmio_base -> st
  | Region r -> into r
  | Any -> { st with escaped = join_opt cfg st.escaped (Some v) }

let destination (inst : Riscv.Inst.t) =
  let open Riscv.Inst in
  match inst with
  | Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) | Jalr (rd, _, _)
  | Lb (rd, _, _) | Lh (rd, _, _) | Lw (rd, _, _) | Lbu (rd, _, _) | Lhu (rd, _, _)
  | Addi (rd, _, _) | Slti (rd, _, _) | Sltiu (rd, _, _) | Xori (rd, _, _) | Ori (rd, _, _) | Andi (rd, _, _)
  | Slli (rd, _, _) | Srli (rd, _, _) | Srai (rd, _, _)
  | Add (rd, _, _) | Sub (rd, _, _) | Sll (rd, _, _) | Slt (rd, _, _) | Sltu (rd, _, _) | Xor (rd, _, _)
  | Srl (rd, _, _) | Sra (rd, _, _) | Or (rd, _, _) | And (rd, _, _)
  | Mul (rd, _, _) | Mulh (rd, _, _) | Mulhsu (rd, _, _) | Mulhu (rd, _, _)
  | Div (rd, _, _) | Divu (rd, _, _) | Rem (rd, _, _) | Remu (rd, _, _) ->
      rd
  | Beq _ | Bne _ | Blt _ | Bge _ | Bltu _ | Bgeu _ | Sb _ | Sh _ | Sw _ | Ecall | Ebreak -> 0

(* One instruction: returns the post-state and the leakage fact. *)
let transfer cfg (addr, inst) st =
  let open Riscv.Inst in
  (* x0 stands in for "no operand": it is always public Const 0. *)
  let v1 = st.regs.(rs1 inst) and v2 = st.regs.(rs2 inst) in
  let op_secret = v1.secret || v2.secret in
  let fact = { addr; inst; secret_branch = false; secret_addr = false; secret_bus = false } in
  let write v = set_reg st (destination inst) v in
  let alu base = (write { base; secret = op_secret }, fact) in
  match inst with
  | Lui (_, imm) -> (write (public (Const (u32 (imm lsl 12)))), fact)
  | Auipc (_, imm) -> (write (public (Const (u32 (addr + (imm lsl 12))))), fact)
  | Jal _ | Jalr _ -> (write (public (Const (u32 (addr + 4)))), fact)
  | Beq _ | Bne _ | Blt _ | Bge _ | Bltu _ | Bgeu _ -> (st, { fact with secret_branch = op_secret })
  | Lb (_, _, imm) | Lh (_, _, imm) | Lw (_, _, imm) | Lbu (_, _, imm) | Lhu (_, _, imm) ->
      let addr_base = add_base cfg v1.base (Const imm) in
      let datum =
        match addr_base with
        | Const a when a >= Riscv.Memory.mmio_base -> any_of (cfg.secret_mmio a)
        | Region r when r >= Riscv.Memory.mmio_base -> any_of true (* unresolved MMIO port: assume secret *)
        | b -> any_of (mem_read cfg st b).secret
      in
      (write datum, { fact with secret_addr = v1.secret; secret_bus = datum.secret })
  | Sb (_, _, imm) | Sh (_, _, imm) | Sw (_, _, imm) ->
      (* v2 is the stored datum: [Inst.rs2] of a store *)
      let addr_base = add_base cfg v1.base (Const imm) in
      (mem_write cfg st addr_base v2, { fact with secret_addr = v1.secret; secret_bus = v2.secret })
  | Addi (_, _, imm) -> alu (add_base cfg v1.base (Const imm))
  | Add _ -> alu (add_base cfg v1.base v2.base)
  | Sub _ -> alu (sub_base cfg v1.base v2.base)
  | Slli (_, _, sh) -> alu (shift_base v1.base sh)
  | Slti _ | Sltiu _ | Xori _ | Ori _ | Andi _ | Srli _ | Srai _ | Sll _ | Slt _ | Sltu _ | Xor _ | Srl _ | Sra _
  | Or _ | And _ | Mul _ | Mulh _ | Mulhsu _ | Mulhu _ | Div _ | Divu _ | Rem _ | Remu _ ->
      alu Any
  | Ecall | Ebreak -> (st, fact)

let block_transfer cfg (b : Cfg.block) st =
  Array.fold_left (fun st ia -> fst (transfer cfg ia st)) st b.Cfg.insts

let analyze config p =
  let graph = Cfg.build p in
  let in_states : (int, state) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace in_states (Cfg.entry graph) (initial_state ());
  let work = Queue.create () in
  Queue.add (Cfg.entry graph) work;
  while not (Queue.is_empty work) do
    let a = Queue.pop work in
    match Hashtbl.find_opt in_states a with
    | None -> ()
    | Some in_st ->
        let b = Cfg.block graph a in
        let out = block_transfer config b in_st in
        List.iter
          (fun s ->
            let updated =
              match Hashtbl.find_opt in_states s with
              | None -> Some out
              | Some old ->
                  let merged = join_state config old out in
                  if state_equal old merged then None else Some merged
            in
            match updated with
            | None -> ()
            | Some st ->
                Hashtbl.replace in_states s st;
                Queue.add s work)
          b.Cfg.succs
  done;
  let facts =
    List.concat_map
      (fun (b : Cfg.block) ->
        match Hashtbl.find_opt in_states b.Cfg.start with
        | None -> []
        | Some in_st ->
            let st = ref in_st in
            Array.to_list
              (Array.map
                 (fun ia ->
                   let st', fact = transfer config ia !st in
                   st := st';
                   fact)
                 b.Cfg.insts))
      (Cfg.blocks graph)
  in
  { cfg = graph; facts = List.sort (fun a b -> Int.compare a.addr b.addr) facts }
