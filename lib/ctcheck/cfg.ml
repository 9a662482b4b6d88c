type terminator =
  | Fallthrough
  | Branch of { taken : int; not_taken : int }
  | Jump of int
  | Call of { target : int; return : int }
  | Return
  | Indirect
  | Halt

type block = { start : int; insts : (int * Riscv.Inst.t) array; term : terminator; succs : int list }

type t = {
  entry : int;
  blocks : block list;
  table : (int, block) Hashtbl.t;
  back_edges : (int * int) list;
  call_returns : int list;
  has_indirect : bool;
}

let entry t = t.entry
let blocks t = t.blocks
let block t a = match Hashtbl.find_opt t.table a with Some b -> b | None -> raise Not_found
let back_edges t = t.back_edges
let call_returns t = t.call_returns
let has_indirect t = t.has_indirect

(* [jalr x0, ra, 0] is the canonical return; everything else indirect. *)
let is_ret = function Riscv.Inst.Jalr (0, rs1, 0) -> rs1 = Riscv.Inst.ra | _ -> false

let build (p : Riscv.Asm.program) =
  let limit = 4 * Array.length p.Riscv.Asm.words in
  let in_range a = a >= 0 && a < limit && a land 3 = 0 in
  let decode a =
    match Riscv.Codec.decode p.Riscv.Asm.words.(a / 4) with
    | i -> Some i
    | exception Riscv.Codec.Illegal _ -> None
  in
  let visited = Hashtbl.create 256 in
  let leaders = Hashtbl.create 64 in
  let call_returns = ref [] in
  let has_indirect = ref false in
  let q = Queue.create () in
  let mark_leader a = if in_range a then Hashtbl.replace leaders a () in
  let push a = if in_range a && not (Hashtbl.mem visited a) then Queue.add a q in
  let note_call_return a =
    if not (List.mem a !call_returns) then call_returns := a :: !call_returns;
    mark_leader a;
    push a
  in
  (* Conservative targets of an indirect jump: the program's labels.
     Label addresses come from the assembler's symbol table, which is
     the only place plausible computed-goto targets can originate. *)
  let open_indirect_targets () =
    if not !has_indirect then begin
      has_indirect := true;
      List.iter
        (fun (_, a) ->
          mark_leader a;
          push a)
        p.Riscv.Asm.labels
    end
  in
  mark_leader 0;
  push 0;
  while not (Queue.is_empty q) do
    let pc = Queue.pop q in
    if not (Hashtbl.mem visited pc) then begin
      Hashtbl.add visited pc ();
      match decode pc with
      | None -> () (* reachable illegal word: fetch fault, block ends *)
      | Some inst -> (
          let open Riscv.Inst in
          match inst with
          | Beq (_, _, off) | Bne (_, _, off) | Blt (_, _, off) | Bge (_, _, off) | Bltu (_, _, off) | Bgeu (_, _, off)
            ->
              mark_leader (pc + off);
              mark_leader (pc + 4);
              push (pc + off);
              push (pc + 4)
          | Jal (rd, off) ->
              mark_leader (pc + off);
              push (pc + off);
              if rd <> 0 then note_call_return (pc + 4)
          | Jalr (rd, _, _) when is_ret inst -> ignore rd (* successors resolved at block build *)
          | Jalr (rd, _, _) ->
              open_indirect_targets ();
              if rd <> 0 then note_call_return (pc + 4)
          | Ecall | Ebreak -> ()
          | _ -> push (pc + 4))
    end
  done;
  let leader_list = List.sort Int.compare (Hashtbl.fold (fun a () acc -> if Hashtbl.mem visited a then a :: acc else acc) leaders []) in
  let dedup l = List.sort_uniq Int.compare l in
  let succ_filter l = dedup (List.filter (fun a -> Hashtbl.mem visited a) l) in
  let build_block start =
    let insts = ref [] in
    let rec walk pc =
      match if Hashtbl.mem visited pc then decode pc else None with
      | None -> (Halt, [])
      | Some inst -> (
          insts := (pc, inst) :: !insts;
          let open Riscv.Inst in
          match inst with
          | Beq (_, _, off) | Bne (_, _, off) | Blt (_, _, off) | Bge (_, _, off) | Bltu (_, _, off) | Bgeu (_, _, off)
            ->
              (Branch { taken = pc + off; not_taken = pc + 4 }, succ_filter [ pc + off; pc + 4 ])
          | Jal (0, off) -> (Jump (pc + off), succ_filter [ pc + off ])
          | Jal (_, off) -> (Call { target = pc + off; return = pc + 4 }, succ_filter [ pc + off ])
          | Jalr _ when is_ret inst -> (Return, succ_filter !call_returns)
          | Jalr _ -> (Indirect, succ_filter (List.map snd p.Riscv.Asm.labels @ leader_list))
          | Ecall | Ebreak -> (Halt, [])
          | _ ->
              if in_range (pc + 4) && not (Hashtbl.mem leaders (pc + 4)) then walk (pc + 4)
              else (Fallthrough, succ_filter [ pc + 4 ]))
    in
    let term, succs = walk start in
    { start; insts = Array.of_list (List.rev !insts); term; succs }
  in
  let block_list = List.map build_block leader_list in
  let table = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace table b.start b) block_list;
  (* DFS back-edge detection over block successors. *)
  let color = Hashtbl.create 64 in
  (* 0 absent = white, 1 = on stack, 2 = done *)
  let backs = ref [] in
  let rec dfs a =
    match Hashtbl.find_opt color a with
    | Some _ -> ()
    | None ->
        Hashtbl.replace color a 1;
        (match Hashtbl.find_opt table a with
        | None -> ()
        | Some b ->
            List.iter
              (fun s ->
                match Hashtbl.find_opt color s with
                | Some 1 -> if not (List.mem (a, s) !backs) then backs := (a, s) :: !backs
                | Some _ -> ()
                | None -> dfs s)
              b.succs);
        Hashtbl.replace color a 2
  in
  dfs 0;
  {
    entry = 0;
    blocks = block_list;
    table;
    back_edges = List.rev !backs;
    call_returns = dedup !call_returns;
    has_indirect = !has_indirect;
  }
