type variant = Vulnerable | Branchless | Shuffled | Cdt_table

type layout = { ram_size : int; poly_base : int; moduli_base : int; perm_base : int }

let default_layout = { ram_size = 1 lsl 20; poly_base = 0x40000; moduli_base = 0x8000; perm_base = 0xC000 }

let noise_port = Memory.mmio_base
let rejection_port = Memory.mmio_base + 4
let uniform_port = Memory.mmio_base + 8
let sign_port = Memory.mmio_base + 12
let cdt_entries = 41
let cdt_base = 0xE000

(* Register plan (see the .mli for the algorithm):
   s1 = coeff_count, s2 = coeff_mod_count, s3 = moduli base,
   s4 = MMIO base, s5 = i, s0 = poly base,
   t0/t1 = noise lo/hi, t2 = borrow/carry, t3 = j, t4 = element addr,
   t5/t6 + a1..a3 = scratch. *)

let s0 = Inst.s 0
let s1 = Inst.s 1
let s2 = Inst.s 2
let s3 = Inst.s 3
let s4 = Inst.s 4
let s5 = Inst.s 5
let t0 = Inst.t 0
let t1 = Inst.t 1
let t2 = Inst.t 2
let t3 = Inst.t 3
let t4 = Inst.t 4
let t5 = Inst.t 5
let t6 = Inst.t 6
let a0 = Inst.a 0
let a1 = Inst.a 1
let a2 = Inst.a 2
let a3 = Inst.a 3
let x0 = Inst.x0

let dist_subroutine =
  let open Asm in
  [
    label "dist";
    comment "replay the polar-method rejections of this draw";
    ins (Inst.Lw (t5, s4, 4));
    li t6 0x1E3779B9;
    label "dist_rej_loop";
    beq t5 x0 "dist_accept";
    ins (Inst.Mul (a1, t6, t5));
    ins (Inst.Mulhu (a2, a1, t6));
    ins (Inst.Xor (a1, a1, a2));
    ins (Inst.Divu (a3, a1, t6));
    ins (Inst.Addi (t5, t5, -1));
    j "dist_rej_loop";
    label "dist_accept";
    comment "fixed-length burn modelling sqrt/log of the accepted point";
    ins (Inst.Mul (a1, t6, t6));
    ins (Inst.Divu (a2, a1, t6));
    ins (Inst.Mul (a1, a2, t6));
    ins (Inst.Divu (a2, a1, t6));
    ins (Inst.Lw (a0, s4, 0));
    ret;
  ]

(* poly element address for coefficient index held in a register:
   t4 = poly_base + 8 * idx.  The j loop then strides by 8*n. *)
let coefficient_address ~layout ~idx_reg =
  let open Asm in
  [ ins (Inst.Slli (t4, idx_reg, 3)); ins (Inst.Add (t4, t4, s0)); comment (Printf.sprintf "poly @0x%x" layout.poly_base) ]

let store_and_stride =
  let open Asm in
  fun next_label ->
    [
      ins (Inst.Slli (t6, s1, 3));
      ins (Inst.Add (t4, t4, t6));
      ins (Inst.Addi (t3, t3, 1));
      j next_label;
    ]

let prologue ?(with_perm = false) ~layout ~n ~k () =
  let open Asm in
  [
    comment "set_poly_coeffs_normal prologue";
    li s1 n;
    li s2 k;
    li s3 layout.moduli_base;
    li s4 Memory.mmio_base;
    li s0 layout.poly_base;
    li s5 0;
  ]
  @ (if with_perm then [ li (Inst.s 6) layout.perm_base ] else [])

let vulnerable_body ~layout ~shuffled =
  let open Asm in
  let idx_setup =
    if shuffled then
      [
        comment "idx = perm[i]";
        ins (Inst.Slli (t4, s5, 2));
        ins (Inst.Add (t4, t4, Inst.s 6));
        ins (Inst.Lw (t2, t4, 0));
      ]
      @ coefficient_address ~layout ~idx_reg:t2
    else coefficient_address ~layout ~idx_reg:s5
  in
  [
    label "outer_loop";
    bge s5 s1 "finish";
    call "dist";
    comment "int64_t noise = dist(engine)  [vulnerability 2]";
    mv t0 a0;
    ins (Inst.Srai (t1, t0, 31));
  ]
  @ idx_setup
  @ [
      li t3 0;
      comment "if (noise > 0) / else if (noise < 0) / else  [vulnerability 1]";
      blt x0 t0 "pos_branch";
      blt t0 x0 "neg_branch";
      j "zero_branch";
      (* --- noise > 0 -------------------------------------------------- *)
      label "pos_branch";
      label "pos_loop";
      bge t3 s2 "next_i";
      ins (Inst.Sw (t0, t4, 0));
      ins (Inst.Sw (t1, t4, 4));
    ]
  @ store_and_stride "pos_loop"
  @ [
      (* --- noise < 0 -------------------------------------------------- *)
      label "neg_branch";
      comment "noise = -noise  (64-bit)  [vulnerability 3]";
      ins (Inst.Sltu (t2, x0, t0));
      ins (Inst.Sub (t0, x0, t0));
      ins (Inst.Sub (t1, x0, t1));
      ins (Inst.Sub (t1, t1, t2));
      label "neg_loop";
      bge t3 s2 "next_i";
      comment "poly[i + j*n] = coeff_modulus[j] - noise";
      ins (Inst.Slli (t6, t3, 3));
      ins (Inst.Add (t6, t6, s3));
      ins (Inst.Lw (a1, t6, 0));
      ins (Inst.Lw (a2, t6, 4));
      ins (Inst.Sltu (t2, a1, t0));
      ins (Inst.Sub (a1, a1, t0));
      ins (Inst.Sub (a2, a2, t1));
      ins (Inst.Sub (a2, a2, t2));
      ins (Inst.Sw (a1, t4, 0));
      ins (Inst.Sw (a2, t4, 4));
    ]
  @ store_and_stride "neg_loop"
  @ [
      (* --- noise = 0 -------------------------------------------------- *)
      label "zero_branch";
      label "zero_loop";
      bge t3 s2 "next_i";
      ins (Inst.Sw (x0, t4, 0));
      ins (Inst.Sw (x0, t4, 4));
    ]
  @ store_and_stride "zero_loop"
  @ [ label "next_i"; ins (Inst.Addi (s5, s5, 1)); j "outer_loop"; label "finish"; halt ]

let branchless_body ~layout =
  let open Asm in
  [
    label "outer_loop";
    bge s5 s1 "finish";
    call "dist";
    comment "v3.6-style: value = noise + (q & (noise >> 63)); no data branch";
    mv t0 a0;
    ins (Inst.Srai (t1, t0, 31));
  ]
  @ coefficient_address ~layout ~idx_reg:s5
  @ [
      li t3 0;
      label "mask_loop";
      bge t3 s2 "next_i";
      ins (Inst.Slli (t6, t3, 3));
      ins (Inst.Add (t6, t6, s3));
      ins (Inst.Lw (a1, t6, 0));
      ins (Inst.Lw (a2, t6, 4));
      comment "t1 is already the all-ones/zero mask (sign extension)";
      ins (Inst.And (a1, a1, t1));
      ins (Inst.And (a2, a2, t1));
      comment "64-bit add: noise + masked modulus";
      ins (Inst.Add (a1, a1, t0));
      ins (Inst.Sltu (t2, a1, t0));
      ins (Inst.Add (a2, a2, t1));
      ins (Inst.Add (a2, a2, t2));
      ins (Inst.Sw (a1, t4, 0));
      ins (Inst.Sw (a2, t4, 4));
    ]
  @ store_and_stride "mask_loop"
  @ [ label "next_i"; ins (Inst.Addi (s5, s5, 1)); j "outer_loop"; label "finish"; halt ]

(* Constant-time CDT draw: scan all thresholds unconditionally,
   accumulate how many fall below the uniform word, then branch on a
   separate sign coin (the leak [10] exploits). *)
let cdt_dist_subroutine =
  let open Asm in
  [
    label "dist";
    ins (Inst.Lw (a1, s4, 8));
    (* uniform 31-bit word *)
    li t5 cdt_base;
    li t6 cdt_entries;
    li a0 0;
    (* magnitude accumulator *)
    li a2 0;
    (* index *)
    label "cdt_loop";
    beq a2 t6 "cdt_scan_done";
    ins (Inst.Lw (a3, t5, 0));
    comment "fixed-latency wide compare of the table entry, modelled on";
    comment "the div unit (same burn convention as the polar dist): the";
    comment "count is data-independent so the scan stays constant-time,";
    comment "and every draw keeps the high-power plateau segmentation";
    comment "anchors on";
    ins (Inst.Divu (t3, a3, t6));
    ins (Inst.Sltu (t2, a3, a1));
    ins (Inst.Add (a0, a0, t2));
    ins (Inst.Addi (t5, t5, 4));
    ins (Inst.Addi (a2, a2, 1));
    j "cdt_loop";
    label "cdt_scan_done";
    ins (Inst.Lw (a1, s4, 12));
    (* sign coin *)
    beq a1 x0 "cdt_positive";
    ins (Inst.Sub (a0, x0, a0));
    label "cdt_positive";
    ret;
  ]

let build ?(variant = Vulnerable) ~n ~k () =
  let layout = default_layout in
  if n <= 0 || k <= 0 then invalid_arg "Sampler_prog.build: n and k must be positive";
  let body, dist =
    match variant with
    | Vulnerable -> (prologue ~layout ~n ~k () @ vulnerable_body ~layout ~shuffled:false, dist_subroutine)
    | Shuffled -> (prologue ~with_perm:true ~layout ~n ~k () @ vulnerable_body ~layout ~shuffled:true, dist_subroutine)
    | Branchless -> (prologue ~layout ~n ~k () @ branchless_body ~layout, dist_subroutine)
    | Cdt_table ->
        (* The CDT design point ([10]/[12]) pairs the constant-time
           table scan with a branchless assignment body: its residual
           leak is the sign branch inside the draw, not the v3.2
           ladder. *)
        (prologue ~layout ~n ~k () @ branchless_body ~layout, cdt_dist_subroutine)
  in
  (* The dist subroutine sits after the main code; execution falls into
     it only via call. *)
  Asm.assemble (body @ dist)

let install_noise_port mem ~draws =
  let noise_cursor = ref 0 and rejection_cursor = ref 0 in
  Memory.set_mmio_read mem (fun addr ->
      if addr = noise_port then begin
        if !noise_cursor >= Array.length draws then invalid_arg "Sampler_prog: noise queue exhausted";
        let v, _ = draws.(!noise_cursor) in
        incr noise_cursor;
        Int32.of_int v
      end
      else if addr = rejection_port then begin
        if !rejection_cursor >= Array.length draws then invalid_arg "Sampler_prog: rejection queue exhausted";
        let _, r = draws.(!rejection_cursor) in
        incr rejection_cursor;
        Int32.of_int r
      end
      else invalid_arg (Printf.sprintf "Sampler_prog: unmapped MMIO read at 0x%x" addr))

let stage_moduli mem layout moduli =
  Array.iteri
    (fun j q ->
      if q <= 0 then invalid_arg "Sampler_prog.stage_moduli: modulus must be positive";
      let addr = layout.moduli_base + (8 * j) in
      Memory.store_word mem addr (Int32.of_int (q land 0xFFFFFFFF));
      Memory.store_word mem (addr + 4) (Int32.of_int (q lsr 32)))
    moduli

let stage_permutation mem layout perm =
  Array.iteri (fun i p -> Memory.store_word mem (layout.perm_base + (4 * i)) (Int32.of_int p)) perm

let read_poly mem layout ~n ~k =
  Array.init k (fun j ->
      Array.init n (fun i ->
          let addr = layout.poly_base + (8 * (i + (j * n))) in
          let lo = Int32.to_int (Memory.load_word mem addr) land 0xFFFFFFFF in
          let hi = Int32.to_int (Memory.load_word mem (addr + 4)) land 0xFFFFFFFF in
          lo lor (hi lsl 32)))

let draws_of_gaussian rng clipped ~count =
  let polar = Mathkit.Gaussian.polar () in
  let noises = Array.make count 0 in
  let draws =
    Array.init count (fun i ->
        let ((noise, _) as draw) = Mathkit.Gaussian.clipped_draw polar rng clipped in
        noises.(i) <- noise;
        draw)
  in
  (draws, noises)

let install_cdt_port mem ~draws =
  let uniform_cursor = ref 0 and sign_cursor = ref 0 in
  Memory.set_mmio_read mem (fun addr ->
      if addr = uniform_port then begin
        if !uniform_cursor >= Array.length draws then invalid_arg "Sampler_prog: uniform queue exhausted";
        let u, _ = draws.(!uniform_cursor) in
        incr uniform_cursor;
        Int32.of_int u
      end
      else if addr = sign_port then begin
        if !sign_cursor >= Array.length draws then invalid_arg "Sampler_prog: sign queue exhausted";
        let _, sgn = draws.(!sign_cursor) in
        incr sign_cursor;
        Int32.of_int sgn
      end
      else invalid_arg (Printf.sprintf "Sampler_prog: unmapped MMIO read at 0x%x" addr))

let stage_cdt_table mem thresholds =
  if Array.length thresholds <> cdt_entries then
    invalid_arg (Printf.sprintf "Sampler_prog.stage_cdt_table: need exactly %d thresholds" cdt_entries);
  Array.iteri
    (fun i t -> Memory.store_word mem (cdt_base + (4 * i)) (Int32.of_int (t land 0x7FFFFFFF)))
    thresholds

let cdt_thresholds ~sigma =
  let table = Mathkit.Gaussian.cdt_table ~sigma ~tail_cut:(float_of_int cdt_entries /. sigma) in
  (* table covers magnitudes 0..bound cumulatively in [0,1]; rescale to
     31-bit fixed point, padding with saturated entries *)
  Array.init cdt_entries (fun i ->
      let p = if i < Array.length table then table.(i) else 1.0 in
      int_of_float (Float.round (p *. float_of_int 0x7FFFFFFF)))

let cdt_magnitude thresholds u =
  Array.fold_left (fun acc t -> if t < u then acc + 1 else acc) 0 thresholds

let cdt_draws_of_gaussian rng ~sigma ~count =
  let thresholds = cdt_thresholds ~sigma in
  let noises = Array.make count 0 in
  let draws =
    Array.init count (fun i ->
        let u = Int64.to_int (Mathkit.Prng.int64_below rng (Int64.of_int 0x80000000)) in
        let magnitude = cdt_magnitude thresholds u in
        let sgn = if magnitude = 0 then 0 else if Mathkit.Prng.bool rng then 1 else 0 in
        noises.(i) <- (if sgn = 1 then -magnitude else magnitude);
        (u, sgn))
  in
  (draws, noises)

let cdt_force_draw rng ~sigma ~value =
  let thresholds = cdt_thresholds ~sigma in
  let m = abs value in
  if m > cdt_entries then invalid_arg "Sampler_prog.cdt_force_draw: magnitude beyond the table";
  (* magnitude m <=> thresholds.(m-1) < u <= thresholds.(m) *)
  let lo = if m = 0 then 0 else thresholds.(m - 1) + 1 in
  let hi = if m < cdt_entries then thresholds.(m) else 0x7FFFFFFF in
  if hi < lo then invalid_arg "Sampler_prog.cdt_force_draw: empty CDF band at this resolution";
  let u = Mathkit.Prng.int_in rng lo hi in
  let sgn = if value < 0 then 1 else 0 in
  (u, sgn)
