type t = {
  base : Riscv.Inst.klass -> float;
  hw_weight : float;
  hd_weight : float;
  bus_weight : float;
}

(* SWAR popcount: 2-, 4- and 8-bit field counts, bytes summed by a multiply *)
let hamming_weight v =
  let v = v land 0xFFFFFFFF in
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  ((v * 0x01010101) lsr 24) land 0xFF

let hamming_distance a b = hamming_weight (a lxor b)

(* Base power per class, arbitrary units.  Multipliers and dividers
   drive far more logic than the plain ALU; memory operations toggle
   the external bus.  These orderings are what make the dist() call's
   div burn visible as the Fig. 3 peak. *)
let default_base = function
  | Riscv.Inst.K_arith -> 10.0
  | Riscv.Inst.K_arith_imm -> 9.5
  | Riscv.Inst.K_mul -> 16.0
  | Riscv.Inst.K_div -> 22.0
  | Riscv.Inst.K_load -> 14.0
  | Riscv.Inst.K_store -> 13.0
  | Riscv.Inst.K_branch_taken -> 11.5
  | Riscv.Inst.K_branch_not_taken -> 8.5
  | Riscv.Inst.K_jump -> 12.0
  | Riscv.Inst.K_system -> 6.0

let default = { base = default_base; hw_weight = 0.15; hd_weight = 0.18; bus_weight = 0.16 }
let hw_only = { default with hd_weight = 0.0 }
let hd_only = { default with hw_weight = 0.0; bus_weight = 0.0 }

(* Both levels are stored where the caller keeps them: a float returned
   across the module boundary would be boxed, once per instruction. *)
let write m (e : Riscv.Trace.event) ~first ~rest k =
  let data =
    (m.hw_weight *. float_of_int (hamming_weight e.rs1_value + hamming_weight e.rs2_value + hamming_weight e.rd_new))
    +. (m.hd_weight *. float_of_int (hamming_distance e.rd_old e.rd_new))
    +. (m.bus_weight *. match e.mem_value with Some v -> float_of_int (hamming_weight v) | None -> 0.0)
  in
  let base = m.base e.klass in
  first.(k) <- base +. data;
  rest.(k) <- 0.85 *. base
