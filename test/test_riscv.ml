(* Tests for the RV32IM simulator and the sampler program. *)

open Riscv

let rng () = Mathkit.Prng.create ~seed:1337L ()

(* --- Codec ------------------------------------------------------------- *)

let arbitrary_inst g =
  let open Inst in
  let reg () = Mathkit.Prng.int g 32 in
  let imm12 () = Mathkit.Prng.int_in g (-2048) 2047 in
  let uimm20 () = Mathkit.Prng.int g (1 lsl 20) in
  let boff () = 2 * Mathkit.Prng.int_in g (-2048) 2047 in
  let joff () = 2 * Mathkit.Prng.int_in g (-(1 lsl 19)) ((1 lsl 19) - 1) in
  let sh () = Mathkit.Prng.int g 32 in
  match Mathkit.Prng.int g 47 with
  | 0 -> Lui (reg (), uimm20 ())
  | 1 -> Auipc (reg (), uimm20 ())
  | 2 -> Jal (reg (), joff ())
  | 3 -> Jalr (reg (), reg (), imm12 ())
  | 4 -> Beq (reg (), reg (), boff ())
  | 5 -> Bne (reg (), reg (), boff ())
  | 6 -> Blt (reg (), reg (), boff ())
  | 7 -> Bge (reg (), reg (), boff ())
  | 8 -> Bltu (reg (), reg (), boff ())
  | 9 -> Bgeu (reg (), reg (), boff ())
  | 10 -> Lb (reg (), reg (), imm12 ())
  | 11 -> Lh (reg (), reg (), imm12 ())
  | 12 -> Lw (reg (), reg (), imm12 ())
  | 13 -> Lbu (reg (), reg (), imm12 ())
  | 14 -> Lhu (reg (), reg (), imm12 ())
  | 15 -> Sb (reg (), reg (), imm12 ())
  | 16 -> Sh (reg (), reg (), imm12 ())
  | 17 -> Sw (reg (), reg (), imm12 ())
  | 18 -> Addi (reg (), reg (), imm12 ())
  | 19 -> Slti (reg (), reg (), imm12 ())
  | 20 -> Sltiu (reg (), reg (), imm12 ())
  | 21 -> Xori (reg (), reg (), imm12 ())
  | 22 -> Ori (reg (), reg (), imm12 ())
  | 23 -> Andi (reg (), reg (), imm12 ())
  | 24 -> Slli (reg (), reg (), sh ())
  | 25 -> Srli (reg (), reg (), sh ())
  | 26 -> Srai (reg (), reg (), sh ())
  | 27 -> Add (reg (), reg (), reg ())
  | 28 -> Sub (reg (), reg (), reg ())
  | 29 -> Sll (reg (), reg (), reg ())
  | 30 -> Slt (reg (), reg (), reg ())
  | 31 -> Sltu (reg (), reg (), reg ())
  | 32 -> Xor (reg (), reg (), reg ())
  | 33 -> Srl (reg (), reg (), reg ())
  | 34 -> Sra (reg (), reg (), reg ())
  | 35 -> Or (reg (), reg (), reg ())
  | 36 -> And (reg (), reg (), reg ())
  | 37 -> Mul (reg (), reg (), reg ())
  | 38 -> Mulh (reg (), reg (), reg ())
  | 39 -> Mulhsu (reg (), reg (), reg ())
  | 40 -> Mulhu (reg (), reg (), reg ())
  | 41 -> Div (reg (), reg (), reg ())
  | 42 -> Divu (reg (), reg (), reg ())
  | 43 -> Rem (reg (), reg (), reg ())
  | 44 -> Remu (reg (), reg (), reg ())
  | 45 -> Ecall
  | _ -> Ebreak

let test_codec_roundtrip () =
  let g = rng () in
  for _ = 1 to 5_000 do
    let inst = arbitrary_inst g in
    let decoded = Codec.decode (Codec.encode inst) in
    Alcotest.(check string) "roundtrip" (Inst.to_string inst) (Inst.to_string decoded)
  done

let test_codec_known_words () =
  (* Cross-checked against the RISC-V spec examples. *)
  Alcotest.(check int32) "addi x1, x0, 1" 0x00100093l (Codec.encode (Inst.Addi (1, 0, 1)));
  Alcotest.(check int32) "add x3, x1, x2" 0x002081B3l (Codec.encode (Inst.Add (3, 1, 2)));
  Alcotest.(check int32) "ebreak" 0x00100073l (Codec.encode Inst.Ebreak);
  Alcotest.(check int32) "ecall" 0x00000073l (Codec.encode Inst.Ecall)

let test_codec_rejects_bad_imm () =
  Alcotest.check_raises "imm too big"
    (Invalid_argument "Codec: I immediate 4000 out of 12-bit range") (fun () ->
      ignore (Codec.encode (Inst.Addi (1, 0, 4000))))

let test_codec_illegal_decode () =
  (try
     ignore (Codec.decode 0xFFFFFFFFl);
     Alcotest.fail "expected Illegal"
   with Codec.Illegal _ -> ())

(* Words that look almost like instructions: every undefined opcode,
   funct3 or funct7 combination must surface as Codec.Illegal — the
   static analyzer decodes whole programs and relies on this boundary
   never escaping as a different exception. *)
let illegal_word_corpus =
  [
    (0x00000000l, "all-zero word");
    (0x00000001l, "compressed-looking opcode 0x01");
    (0x0000002Fl, "AMO opcode (not in RV32IM)");
    (0x0000300Fl, "FENCE opcode");
    (0x00003003l, "load funct3=3");
    (0x00006003l, "load funct3=6 (lwu is RV64)");
    (0x00003023l, "store funct3=3");
    (0x00002063l, "branch funct3=2");
    (0x00003063l, "branch funct3=3");
    (0x00001067l, "jalr funct3=1");
    (0x40001013l, "slli with srai's funct7");
    (0x20005013l, "srli/srai with funct7=0x10");
    (0xFE000033l, "op funct7=0x7F");
    (0x42000033l, "op funct7=0x21 (mul+sub mixup)");
    (0x00200073l, "system imm=2 (neither ecall nor ebreak)");
    (0x000000F3l, "ecall encoding with rd!=x0");
    (0xFFFFFFFFl, "all-ones word");
  ]

let test_codec_illegal_corpus () =
  List.iter
    (fun (word, what) ->
      match Codec.decode word with
      | inst -> Alcotest.failf "%s decoded as %s" what (Inst.to_string inst)
      | exception Codec.Illegal w -> Alcotest.(check int32) what word w)
    illegal_word_corpus

(* --- Memory -------------------------------------------------------------- *)

let test_memory_word_roundtrip () =
  let m = Memory.create 1024 in
  Memory.store_word m 0 0xDEADBEEF;
  Alcotest.(check int) "word" 0xDEADBEEF (Memory.load_word m 0)

let test_memory_byte_sign () =
  let m = Memory.create 1024 in
  Memory.store_byte m 5 0xFF;
  Alcotest.(check int) "signed byte" (-1) (Memory.load_byte m 5);
  Alcotest.(check int) "unsigned byte" 0xFF (Memory.load_byte_u m 5)

let test_memory_half_sign () =
  let m = Memory.create 1024 in
  Memory.store_half m 8 0x8000;
  Alcotest.(check int) "signed half" (-32768) (Memory.load_half m 8);
  Alcotest.(check int) "unsigned half" 0x8000 (Memory.load_half_u m 8)

let test_memory_little_endian () =
  let m = Memory.create 1024 in
  Memory.store_word m 0 0x04030201;
  Alcotest.(check int) "byte0" 1 (Memory.load_byte_u m 0);
  Alcotest.(check int) "byte3" 4 (Memory.load_byte_u m 3)

let test_memory_unaligned_raises () =
  let m = Memory.create 1024 in
  Alcotest.check_raises "unaligned" (Invalid_argument "Memory.load_word: unaligned") (fun () ->
      ignore (Memory.load_word m 2))

let test_memory_mmio () =
  let m = Memory.create 1024 in
  Memory.set_mmio_read m (fun addr -> Int32.of_int (addr land 0xFF));
  Alcotest.(check int) "mmio routed" 4 (Memory.load_word m (Memory.mmio_base + 4))

(* One RAM serves run after run: [clear] must give back exactly what
   [create] returned — zero bytes everywhere, no MMIO handler. *)
let test_memory_clear () =
  let m = Memory.create 1024 in
  for a = 0 to 255 do
    Memory.store_word m (4 * a) (0x01010101 * (a + 1))
  done;
  Memory.set_mmio_read m (fun _ -> 7l);
  Memory.clear m;
  for a = 0 to 1023 do
    if Memory.load_byte_u m a <> 0 then Alcotest.failf "byte %d not cleared" a
  done;
  Alcotest.check_raises "no handler" (Invalid_argument "Memory.load_word: MMIO read with no handler") (fun () ->
      ignore (Memory.load_word m Memory.mmio_base))

(* --- Asm ------------------------------------------------------------------- *)

let run_program ?(ram = 1 lsl 16) items =
  let prog = Asm.assemble items in
  let mem = Memory.create ram in
  Memory.load_program mem 0 prog.Asm.words;
  let cpu = Cpu.create mem in
  ignore (Cpu.run ~max_steps:1_000_000 cpu);
  cpu

let test_asm_forward_backward_labels () =
  (* Sum 1..10 with a backward branch and a forward exit. *)
  let open Asm in
  let cpu =
    run_program
      [
        li (Inst.a 0) 0;
        li (Inst.t 0) 1;
        li (Inst.t 1) 11;
        label "loop";
        beq (Inst.t 0) (Inst.t 1) "done";
        ins (Inst.Add (Inst.a 0, Inst.a 0, Inst.t 0));
        ins (Inst.Addi (Inst.t 0, Inst.t 0, 1));
        j "loop";
        label "done";
        halt;
      ]
  in
  Alcotest.(check int) "sum 1..10" 55 (Cpu.reg cpu (Inst.a 0))

let test_asm_duplicate_label_raises () =
  Alcotest.check_raises "dup" (Asm.Error (Asm.Duplicate_label "x")) (fun () ->
      ignore (Asm.assemble [ Asm.label "x"; Asm.label "x" ]))

let test_asm_undefined_label_raises () =
  Alcotest.check_raises "undef" (Asm.Error (Asm.Undefined_label "nowhere")) (fun () ->
      ignore (Asm.assemble [ Asm.j "nowhere" ]))

let test_asm_branch_out_of_range () =
  (* A conditional branch reaches +-4 KiB; park the target 2000
     instructions away and the assembler must name the label and the
     distance, not die inside the encoder. *)
  let open Asm in
  let far = List.init 2000 (fun _ -> nop) in
  (try
     ignore (Asm.assemble ((blt (Inst.t 0) (Inst.t 1) "far" :: far) @ [ label "far"; halt ]));
     Alcotest.fail "expected Asm.Error"
   with Asm.Error (Asm.Branch_out_of_range { label; distance; at }) ->
     Alcotest.(check string) "label" "far" label;
     Alcotest.(check int) "distance" 8004 distance;
     Alcotest.(check int) "at" 0 at);
  (* jal reaches +-1 MiB: the same label distance assembles fine *)
  let prog = Asm.assemble ((j "far" :: far) @ [ label "far"; halt ]) in
  Alcotest.(check int) "jal spans it" 8004 (Asm.label_address prog "far")

let test_asm_li_large_constant () =
  let open Asm in
  let cpu = run_program [ li (Inst.a 0) 0x12345678; halt ] in
  Alcotest.(check int) "li 0x12345678" 0x12345678 (Cpu.reg cpu (Inst.a 0));
  let cpu = run_program [ li (Inst.a 0) (-1); halt ] in
  Alcotest.(check int) "li -1" 0xFFFFFFFF (Cpu.reg cpu (Inst.a 0));
  let cpu = run_program [ li (Inst.a 0) 0x80000000; halt ] in
  Alcotest.(check int) "li 0x80000000" 0x80000000 (Cpu.reg cpu (Inst.a 0))

let test_asm_call_ret () =
  let open Asm in
  let cpu =
    run_program
      [ li (Inst.a 0) 5; call "double"; call "double"; halt; label "double"; ins (Inst.Add (Inst.a 0, Inst.a 0, Inst.a 0)); ret ]
  in
  Alcotest.(check int) "double twice" 20 (Cpu.reg cpu (Inst.a 0))

(* --- Cpu semantics ------------------------------------------------------------ *)

let exec_rr inst a b =
  let open Asm in
  let cpu = run_program [ li (Inst.a 1) a; li (Inst.a 2) b; ins inst; halt ] in
  Cpu.reg cpu (Inst.a 0)

let a0 = Inst.a 0
let a1 = Inst.a 1
let a2 = Inst.a 2

let test_cpu_add_wraps () =
  Alcotest.(check int) "wrap" 0 (exec_rr (Inst.Add (a0, a1, a2)) 0xFFFFFFFF 1)

let test_cpu_sub_wraps () =
  Alcotest.(check int) "wrap" 0xFFFFFFFF (exec_rr (Inst.Sub (a0, a1, a2)) 0 1)

let test_cpu_slt () =
  Alcotest.(check int) "signed lt" 1 (exec_rr (Inst.Slt (a0, a1, a2)) 0xFFFFFFFF 0);
  (* -1 < 0 *)
  Alcotest.(check int) "unsigned not lt" 0 (exec_rr (Inst.Sltu (a0, a1, a2)) 0xFFFFFFFF 0)

let test_cpu_shifts () =
  Alcotest.(check int) "sll" 0x10 (exec_rr (Inst.Sll (a0, a1, a2)) 1 4);
  Alcotest.(check int) "srl" 0x0FFFFFFF (exec_rr (Inst.Srl (a0, a1, a2)) 0xFFFFFFFF 4);
  Alcotest.(check int) "sra sign fill" 0xFFFFFFFF (exec_rr (Inst.Sra (a0, a1, a2)) 0xFFFFFFFF 4);
  Alcotest.(check int) "shift amount masked to 5 bits" 2 (exec_rr (Inst.Sll (a0, a1, a2)) 1 33)

let test_cpu_mul () =
  Alcotest.(check int) "mul low" (0xFFFFFFFE * 2 land 0xFFFFFFFF) (exec_rr (Inst.Mul (a0, a1, a2)) 0xFFFFFFFE 2);
  (* (-1) * (-1) = 1: high word of signed product is 0 *)
  Alcotest.(check int) "mulh" 0 (exec_rr (Inst.Mulh (a0, a1, a2)) 0xFFFFFFFF 0xFFFFFFFF);
  (* unsigned: 0xFFFFFFFF^2 = 0xFFFFFFFE00000001 *)
  Alcotest.(check int) "mulhu" 0xFFFFFFFE (exec_rr (Inst.Mulhu (a0, a1, a2)) 0xFFFFFFFF 0xFFFFFFFF);
  (* signed -1 * unsigned 0xFFFFFFFF = -0xFFFFFFFF; high word = 0xFFFFFFFF *)
  Alcotest.(check int) "mulhsu" 0xFFFFFFFF (exec_rr (Inst.Mulhsu (a0, a1, a2)) 0xFFFFFFFF 0xFFFFFFFF)

let test_cpu_div_edge_cases () =
  Alcotest.(check int) "div" 0xFFFFFFFE (exec_rr (Inst.Div (a0, a1, a2)) 0xFFFFFFFC 2);
  (* -4 / 2 = -2 *)
  Alcotest.(check int) "div by zero" 0xFFFFFFFF (exec_rr (Inst.Div (a0, a1, a2)) 42 0);
  Alcotest.(check int) "rem by zero" 42 (exec_rr (Inst.Rem (a0, a1, a2)) 42 0);
  Alcotest.(check int) "overflow div" 0x80000000 (exec_rr (Inst.Div (a0, a1, a2)) 0x80000000 0xFFFFFFFF);
  Alcotest.(check int) "overflow rem" 0 (exec_rr (Inst.Rem (a0, a1, a2)) 0x80000000 0xFFFFFFFF);
  Alcotest.(check int) "divu" 0x7FFFFFFE (exec_rr (Inst.Divu (a0, a1, a2)) 0xFFFFFFFC 2);
  Alcotest.(check int) "divu by zero" 0xFFFFFFFF (exec_rr (Inst.Divu (a0, a1, a2)) 42 0);
  Alcotest.(check int) "rem signed" (0x100000000 - 1) (exec_rr (Inst.Rem (a0, a1, a2)) 0xFFFFFFFF 2)

let test_cpu_div_toward_zero () =
  (* -7 / 2 = -3 (toward zero), rem -1 *)
  Alcotest.(check int) "div toward zero" (0x100000000 - 3) (exec_rr (Inst.Div (a0, a1, a2)) (0x100000000 - 7) 2);
  Alcotest.(check int) "rem sign follows dividend" (0x100000000 - 1) (exec_rr (Inst.Rem (a0, a1, a2)) (0x100000000 - 7) 2)

let test_cpu_x0_hardwired () =
  let open Asm in
  let cpu = run_program [ li (Inst.t 0) 5; ins (Inst.Add (Inst.x0, Inst.t 0, Inst.t 0)); halt ] in
  Alcotest.(check int) "x0 stays zero" 0 (Cpu.reg cpu Inst.x0)

let test_cpu_load_store_program () =
  let open Asm in
  let cpu =
    run_program
      [
        li (Inst.t 0) 0x1234;
        li (Inst.t 1) 0x100;
        ins (Inst.Sw (Inst.t 0, Inst.t 1, 0));
        ins (Inst.Lw (Inst.a 0, Inst.t 1, 0));
        ins (Inst.Lb (Inst.a 1, Inst.t 1, 1));
        halt;
      ]
  in
  Alcotest.(check int) "lw" 0x1234 (Cpu.reg cpu (Inst.a 0));
  Alcotest.(check int) "lb of 0x12" 0x12 (Cpu.reg cpu (Inst.a 1))

let test_cpu_branch_events () =
  let open Asm in
  let prog =
    Asm.assemble
      [ li (Inst.t 0) 1; beq (Inst.t 0) Inst.x0 "skip"; nop; label "skip"; halt ]
  in
  let mem = Memory.create 4096 in
  Memory.load_program mem 0 prog.Asm.words;
  let rec_ = Trace.recorder () in
  let cpu = Cpu.create ~tracer:(Trace.record rec_) mem in
  ignore (Cpu.run cpu);
  let events = Trace.events rec_ in
  let branch_event = Array.to_list events |> List.find (fun e -> Inst.is_branch e.Trace.inst) in
  Alcotest.(check bool) "not taken classified" true (branch_event.Trace.klass = Inst.K_branch_not_taken)

let test_cpu_cycle_accounting () =
  let open Asm in
  let prog = Asm.assemble [ nop; nop; halt ] in
  let mem = Memory.create 4096 in
  Memory.load_program mem 0 prog.Asm.words;
  let cpu = Cpu.create mem in
  ignore (Cpu.run cpu);
  Alcotest.(check int) "cycles" (3 + 3 + 3) (Cpu.cycle cpu);
  Alcotest.(check int) "retired" 3 (Cpu.retired cpu)

(* The decode cache holds each pc's last word and decoding: code that
   rewrites itself — an instruction replaced before it first runs, and
   one flipped between two words on every pass of a loop after it has
   run — must execute what memory holds at each fetch. *)
let test_cpu_self_modifying_code () =
  let open Asm in
  let word i = Int32.to_int (Codec.encode i) land 0xFFFFFFFF in
  let a0 = Inst.a 0 and a1 = Inst.a 1 in
  let plus1 = word (Inst.Addi (a0, a0, 1)) and plus100 = word (Inst.Addi (a0, a0, 100)) in
  let prog =
    Asm.assemble
      [
        li (Inst.s 0) plus100;
        li (Inst.s 1) (plus1 lxor plus100);
        la (Inst.s 2) "target";
        la (Inst.s 3) "later";
        li (Inst.s 4) (word (Inst.Addi (a1, a1, 7)));
        li (Inst.t 2) 4;
        ins (Inst.Sw (Inst.s 4, Inst.s 3, 0));
        label "loop";
        label "target";
        ins (Inst.Addi (a0, a0, 1));
        ins (Inst.Sw (Inst.s 0, Inst.s 2, 0));
        ins (Inst.Xor (Inst.s 0, Inst.s 0, Inst.s 1));
        ins (Inst.Addi (Inst.t 2, Inst.t 2, -1));
        bne (Inst.t 2) Inst.x0 "loop";
        label "later";
        ins (Inst.Addi (a1, a1, 1));
        halt;
      ]
  in
  let mem = Memory.create 4096 in
  Memory.load_program mem 0 prog.Asm.words;
  let mismatches = ref 0 and events = ref 0 in
  (* no instruction stores into its own pc, so after each step the word
     at the event's pc is the word it executed *)
  let tracer e =
    incr events;
    if e.Trace.inst <> Codec.decode (Int32.of_int (Memory.load_word mem e.Trace.pc)) then incr mismatches
  in
  let cpu = Cpu.create ~tracer mem in
  ignore (Cpu.run ~max_steps:1000 cpu);
  (* passes run +1, +100, +1, +100 *)
  Alcotest.(check int) "flipped in a loop after running" 202 (Cpu.reg cpu a0);
  Alcotest.(check int) "replaced before running" 7 (Cpu.reg cpu a1);
  Alcotest.(check bool) "events seen" true (!events > 20);
  Alcotest.(check int) "every event decodes its pc's word" 0 !mismatches

(* --- Sampler program -------------------------------------------------------------- *)

let moduli_seal = [| 132120577 |]

let run_sampler ?(variant = Sampler_prog.Vulnerable) ?perm ~n ~k ~draws () =
  let layout = Sampler_prog.default_layout in
  let prog = Sampler_prog.build ~variant ~n ~k () in
  let mem = Memory.create layout.Sampler_prog.ram_size in
  Memory.load_program mem 0 prog.Asm.words;
  Sampler_prog.stage_moduli mem layout (Array.sub moduli_seal 0 k);
  (match perm with Some p -> Sampler_prog.stage_permutation mem layout p | None -> ());
  Sampler_prog.install_noise_port mem ~draws;
  let rec_ = Trace.recorder () in
  let cpu = Cpu.create ~tracer:(Trace.record rec_) mem in
  ignore (Cpu.run ~max_steps:10_000_000 cpu);
  (Sampler_prog.read_poly mem layout ~n ~k, Trace.events rec_)

let expected_coeff q noise = if noise > 0 then noise else if noise < 0 then q - (-noise) else 0

let test_sampler_vulnerable_correct () =
  let noises = [| 3; -5; 0; 41; -41; 1; -1; 0 |] in
  let draws = Array.map (fun z -> (z, 0)) noises in
  let poly, _ = run_sampler ~n:(Array.length noises) ~k:1 ~draws () in
  Array.iteri
    (fun i z -> Alcotest.(check int) (Printf.sprintf "coeff %d" i) (expected_coeff 132120577 z) poly.(0).(i))
    noises

let test_sampler_branchless_matches () =
  let noises = [| 3; -5; 0; 41; -41; 1; -1; 0 |] in
  let draws = Array.map (fun z -> (z, 0)) noises in
  let poly_v, _ = run_sampler ~n:8 ~k:1 ~draws () in
  let poly_b, _ = run_sampler ~variant:Sampler_prog.Branchless ~n:8 ~k:1 ~draws () in
  Alcotest.(check bool) "same output" true (poly_v = poly_b)

let test_sampler_shuffled_matches () =
  let noises = [| 3; -5; 0; 7 |] in
  let draws = Array.map (fun z -> (z, 0)) noises in
  let perm = [| 2; 0; 3; 1 |] in
  let poly, _ = run_sampler ~variant:Sampler_prog.Shuffled ~perm ~n:4 ~k:1 ~draws () in
  (* draw d lands at coefficient perm.(d) *)
  Array.iteri
    (fun d z -> Alcotest.(check int) (Printf.sprintf "draw %d" d) (expected_coeff 132120577 z) poly.(0).(perm.(d)))
    noises

let test_sampler_rejections_lengthen_trace () =
  let draws_fast = [| (1, 0) |] and draws_slow = [| (1, 5) |] in
  let _, ev_fast = run_sampler ~n:1 ~k:1 ~draws:draws_fast () in
  let _, ev_slow = run_sampler ~n:1 ~k:1 ~draws:draws_slow () in
  Alcotest.(check bool) "time-variant sampling" true (Array.length ev_slow > Array.length ev_fast)

let test_sampler_branch_paths_differ () =
  (* The retired instruction streams of the three branches must differ:
     that is vulnerability 1. *)
  let stream z =
    let _, ev = run_sampler ~n:1 ~k:1 ~draws:[| (z, 0) |] () in
    Array.to_list ev |> List.map (fun e -> Inst.to_string e.Trace.inst)
  in
  let pos = stream 3 and neg = stream (-3) and zero = stream 0 in
  Alcotest.(check bool) "pos <> neg" true (pos <> neg);
  Alcotest.(check bool) "pos <> zero" true (pos <> zero);
  Alcotest.(check bool) "neg <> zero" true (neg <> zero)

let test_sampler_branchless_paths_identical () =
  let stream z =
    let _, ev = run_sampler ~variant:Sampler_prog.Branchless ~n:1 ~k:1 ~draws:[| (z, 0) |] () in
    Array.to_list ev |> List.map (fun e -> Inst.to_string e.Trace.inst)
  in
  Alcotest.(check bool) "pos = neg instruction stream" true (stream 3 = stream (-3));
  Alcotest.(check bool) "pos = zero instruction stream" true (stream 3 = stream 0)

let test_sampler_multi_plane () =
  (* k = 1 only prime available in moduli_seal; craft a two-prime chain. *)
  let layout = Sampler_prog.default_layout in
  let prog = Sampler_prog.build ~n:3 ~k:2 () in
  let mem = Memory.create layout.Sampler_prog.ram_size in
  Memory.load_program mem 0 prog.Asm.words;
  let moduli = [| 97; 193 |] in
  Sampler_prog.stage_moduli mem layout moduli;
  Sampler_prog.install_noise_port mem ~draws:[| (2, 0); (-3, 0); (0, 0) |];
  let cpu = Cpu.create mem in
  ignore (Cpu.run ~max_steps:1_000_000 cpu);
  let poly = Sampler_prog.read_poly mem layout ~n:3 ~k:2 in
  Alcotest.(check int) "plane0 pos" 2 poly.(0).(0);
  Alcotest.(check int) "plane1 pos" 2 poly.(1).(0);
  Alcotest.(check int) "plane0 neg" (97 - 3) poly.(0).(1);
  Alcotest.(check int) "plane1 neg" (193 - 3) poly.(1).(1);
  Alcotest.(check int) "plane0 zero" 0 poly.(0).(2);
  Alcotest.(check int) "plane1 zero" 0 poly.(1).(2)

let test_sampler_large_modulus_64bit () =
  (* Exercise the 64-bit subtract path with a modulus above 2^32. *)
  let layout = Sampler_prog.default_layout in
  let prog = Sampler_prog.build ~n:1 ~k:1 () in
  let mem = Memory.create layout.Sampler_prog.ram_size in
  Memory.load_program mem 0 prog.Asm.words;
  let q = (1 lsl 45) + 9 in
  Sampler_prog.stage_moduli mem layout [| q |];
  Sampler_prog.install_noise_port mem ~draws:[| (-11, 0) |];
  let cpu = Cpu.create mem in
  ignore (Cpu.run ~max_steps:1_000_000 cpu);
  let poly = Sampler_prog.read_poly mem layout ~n:1 ~k:1 in
  Alcotest.(check int) "q - 11" (q - 11) poly.(0).(0)

let test_sampler_draws_of_gaussian () =
  let g = rng () in
  let draws, noises = Sampler_prog.draws_of_gaussian g Mathkit.Gaussian.seal_default ~count:1_000 in
  Alcotest.(check int) "count" 1_000 (Array.length draws);
  Array.iteri
    (fun i (z, rej) ->
      Alcotest.(check int) "queue matches ground truth" noises.(i) z;
      Alcotest.(check bool) "bounded" true (abs z <= 20);
      Alcotest.(check bool) "rejections non-negative" true (rej >= 0))
    draws;
  (* Polar method rejects ~21.5% of points, so rejections must occur. *)
  let total_rej = Array.fold_left (fun acc (_, r) -> acc + r) 0 draws in
  Alcotest.(check bool) "some rejections" true (total_rej > 50)

let test_sampler_end_to_end_gaussian () =
  let g = rng () in
  let n = 64 in
  let draws, noises = Sampler_prog.draws_of_gaussian g Mathkit.Gaussian.seal_default ~count:n in
  let poly, _ = run_sampler ~n ~k:1 ~draws () in
  Array.iteri
    (fun i z -> Alcotest.(check int) (Printf.sprintf "coeff %d" i) (expected_coeff 132120577 z) poly.(0).(i))
    noises

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("codec roundtrip (5000 random)", test_codec_roundtrip);
      ("codec known encodings", test_codec_known_words);
      ("codec rejects bad immediate", test_codec_rejects_bad_imm);
      ("codec illegal decode", test_codec_illegal_decode);
      ("codec illegal-word corpus", test_codec_illegal_corpus);
      ("memory word roundtrip", test_memory_word_roundtrip);
      ("memory byte sign extension", test_memory_byte_sign);
      ("memory half sign extension", test_memory_half_sign);
      ("memory little endian", test_memory_little_endian);
      ("memory unaligned raises", test_memory_unaligned_raises);
      ("memory mmio routing", test_memory_mmio);
      ("memory clear = a fresh create", test_memory_clear);
      ("asm labels forward/backward", test_asm_forward_backward_labels);
      ("asm duplicate label raises", test_asm_duplicate_label_raises);
      ("asm undefined label raises", test_asm_undefined_label_raises);
      ("asm branch out of range names label", test_asm_branch_out_of_range);
      ("asm li large constants", test_asm_li_large_constant);
      ("asm call/ret", test_asm_call_ret);
      ("cpu add wraps", test_cpu_add_wraps);
      ("cpu sub wraps", test_cpu_sub_wraps);
      ("cpu slt signed/unsigned", test_cpu_slt);
      ("cpu shifts", test_cpu_shifts);
      ("cpu mul family", test_cpu_mul);
      ("cpu div/rem edge cases", test_cpu_div_edge_cases);
      ("cpu div rounds toward zero", test_cpu_div_toward_zero);
      ("cpu x0 hardwired", test_cpu_x0_hardwired);
      ("cpu load/store", test_cpu_load_store_program);
      ("cpu branch direction in events", test_cpu_branch_events);
      ("cpu cycle accounting", test_cpu_cycle_accounting);
      ("cpu self-modifying code re-decodes", test_cpu_self_modifying_code);
      ("sampler vulnerable semantics", test_sampler_vulnerable_correct);
      ("sampler branchless same output", test_sampler_branchless_matches);
      ("sampler shuffled permutation", test_sampler_shuffled_matches);
      ("sampler time-variant rejections", test_sampler_rejections_lengthen_trace);
      ("sampler branch paths differ (vuln 1)", test_sampler_branch_paths_differ);
      ("sampler branchless paths identical", test_sampler_branchless_paths_identical);
      ("sampler multi-plane RNS", test_sampler_multi_plane);
      ("sampler 64-bit modulus", test_sampler_large_modulus_64bit);
      ("sampler gaussian draw queue", test_sampler_draws_of_gaussian);
      ("sampler end-to-end gaussian", test_sampler_end_to_end_gaussian);
    ]

(* --- property tests: ALU semantics vs a reference model ------------------ *)

let u32 x = x land 0xFFFFFFFF
let signed32 x = if x land 0x80000000 <> 0 then x - 0x100000000 else x

let reference op a b =
  match op with
  | Inst.Add _ -> u32 (a + b)
  | Inst.Sub _ -> u32 (a - b)
  | Inst.Xor _ -> a lxor b
  | Inst.Or _ -> a lor b
  | Inst.And _ -> a land b
  | Inst.Sll _ -> u32 (a lsl (b land 31))
  | Inst.Srl _ -> a lsr (b land 31)
  | Inst.Sra _ -> u32 (signed32 a asr (b land 31))
  | Inst.Slt _ -> if signed32 a < signed32 b then 1 else 0
  | Inst.Sltu _ -> if a < b then 1 else 0
  | Inst.Mul _ -> Int64.to_int (Int64.logand (Int64.mul (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL)
  | Inst.Mulh _ ->
      u32 (Int64.to_int (Int64.shift_right (Int64.mul (Int64.of_int (signed32 a)) (Int64.of_int (signed32 b))) 32))
  | Inst.Mulhsu _ -> u32 (Int64.to_int (Int64.shift_right (Int64.mul (Int64.of_int (signed32 a)) (Int64.of_int b)) 32))
  | Inst.Mulhu _ ->
      (* exact high word via the mathkit 128-bit product *)
      let hi, lo = Mathkit.Modular.mul128 a b in
      u32 ((hi lsl 30) lor (lo lsr 32))
  | Inst.Div _ ->
      let sa = signed32 a and sb = signed32 b in
      if sb = 0 then 0xFFFFFFFF else if sa = -0x80000000 && sb = -1 then 0x80000000 else u32 (sa / sb)
  | Inst.Divu _ -> if b = 0 then 0xFFFFFFFF else a / b
  | Inst.Rem _ ->
      let sa = signed32 a and sb = signed32 b in
      if sb = 0 then u32 sa else if sa = -0x80000000 && sb = -1 then 0 else u32 (sa mod sb)
  | Inst.Remu _ -> if b = 0 then a else a mod b
  | _ -> invalid_arg "reference: not an ALU op"

let alu_ops =
  let mk f = f (Inst.a 0) (Inst.a 1) (Inst.a 2) in
  [
    ("add", mk (fun d a b -> Inst.Add (d, a, b)));
    ("sub", mk (fun d a b -> Inst.Sub (d, a, b)));
    ("xor", mk (fun d a b -> Inst.Xor (d, a, b)));
    ("or", mk (fun d a b -> Inst.Or (d, a, b)));
    ("and", mk (fun d a b -> Inst.And (d, a, b)));
    ("sll", mk (fun d a b -> Inst.Sll (d, a, b)));
    ("srl", mk (fun d a b -> Inst.Srl (d, a, b)));
    ("sra", mk (fun d a b -> Inst.Sra (d, a, b)));
    ("slt", mk (fun d a b -> Inst.Slt (d, a, b)));
    ("sltu", mk (fun d a b -> Inst.Sltu (d, a, b)));
    ("mul", mk (fun d a b -> Inst.Mul (d, a, b)));
    ("mulh", mk (fun d a b -> Inst.Mulh (d, a, b)));
    ("mulhsu", mk (fun d a b -> Inst.Mulhsu (d, a, b)));
    ("mulhu", mk (fun d a b -> Inst.Mulhu (d, a, b)));
    ("div", mk (fun d a b -> Inst.Div (d, a, b)));
    ("divu", mk (fun d a b -> Inst.Divu (d, a, b)));
    ("rem", mk (fun d a b -> Inst.Rem (d, a, b)));
    ("remu", mk (fun d a b -> Inst.Remu (d, a, b)));
  ]

let qcheck_cases =
  let open QCheck in
  let word = int_bound 0xFFFFFFF in
  let edge_words = [ 0; 1; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; 0xFFFFFFFE ] in
  let arbitrary_word =
    (* mix random words with 32-bit edge cases *)
    map
      (fun (pick, r, shift) ->
        if pick < 3 then List.nth edge_words (pick * 2 + (r land 1)) else u32 (r lsl (shift land 7)))
      (triple (int_bound 5) word (int_bound 7))
  in
  List.map
    (fun (name, op) ->
      Test.make ~name:(Printf.sprintf "cpu %s matches reference" name) ~count:200
        (pair arbitrary_word arbitrary_word)
        (fun (a, b) -> exec_rr op a b = reference op a b))
    alu_ops

let codec_qcheck_cases =
  let open QCheck in
  [
    (* structural equality: encode is injective on legal instructions *)
    Test.make ~name:"codec encode/decode roundtrip (property)" ~count:2000 int
      (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        let inst = arbitrary_inst g in
        Codec.decode (Codec.encode inst) = inst);
    (* the operand decode the CPU samples (the power model's operands)
       and leaklint taints, against the register fields of the
       instruction's own encoding, by opcode format *)
    Test.make ~name:"operand decode = the encoding's register fields" ~count:2000 int (fun seed ->
        let g = Mathkit.Prng.create ~seed:(Int64.of_int seed) () in
        let inst = arbitrary_inst g in
        let w = Int32.to_int (Codec.encode inst) land 0xFFFFFFFF in
        let rs1 = (w lsr 15) land 0x1F and rs2 = (w lsr 20) land 0x1F in
        let expected =
          match w land 0x7F with
          | 0x33 (* R: OP *) | 0x23 (* S: STORE *) | 0x63 (* B: BRANCH *) -> (rs1, rs2)
          | 0x13 (* I: OP-IMM *) | 0x03 (* I: LOAD *) | 0x67 (* I: JALR *) -> (rs1, 0)
          | 0x37 (* U: LUI *) | 0x17 (* U: AUIPC *) | 0x6F (* J: JAL *) | 0x73 (* SYSTEM *) -> (0, 0)
          | op -> Test.fail_reportf "unexpected opcode 0x%02x in %s" op (Inst.to_string inst)
        in
        let got = (Inst.rs1 inst, Inst.rs2 inst) in
        if got <> expected then
          Test.fail_reportf "%s: decode (x%d, x%d), encoding (x%d, x%d)" (Inst.to_string inst) (fst got) (snd got)
            (fst expected) (snd expected)
        else true);
    (* decode is total up to Codec.Illegal: no random word may escape
       through any other exception *)
    Test.make ~name:"codec decode total (Illegal or a value)" ~count:5000
      (int_bound 0xFFFFFFF)
      (fun r ->
        let word = Int32.of_int ((r * 0x9E3779B9) land 0xFFFFFFFF) in
        match Codec.decode word with
        | _ -> true
        | exception Codec.Illegal w -> w = word);
  ]

let suite = suite @ List.map QCheck_alcotest.to_alcotest (qcheck_cases @ codec_qcheck_cases)

(* --- CDT firmware variant (prior-work baseline) --------------------------- *)

let test_cdt_thresholds_monotone () =
  let t = Sampler_prog.cdt_thresholds ~sigma:3.19 in
  Alcotest.(check int) "entry count" Sampler_prog.cdt_entries (Array.length t);
  let prev = ref (-1) in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "monotone non-decreasing" true (v >= !prev);
      Alcotest.(check bool) "31-bit range" true (v >= 0 && v <= 0x7FFFFFFF);
      prev := v)
    t;
  Alcotest.(check int) "saturates at 1.0" 0x7FFFFFFF t.(Sampler_prog.cdt_entries - 1)

let test_cdt_draws_distribution () =
  let g = rng () in
  let _, noises = Sampler_prog.cdt_draws_of_gaussian g ~sigma:3.19 ~count:50_000 in
  let acc = Mathkit.Stats.running () in
  Array.iter (fun z -> Mathkit.Stats.push acc (float_of_int z)) noises;
  Alcotest.(check bool) "mean near 0" true (Float.abs (Mathkit.Stats.mean acc) < 0.06);
  Alcotest.(check bool) "stddev near sigma" true (Float.abs (Mathkit.Stats.stddev acc -. 3.19) < 0.15)

let test_cdt_force_draw_hits_band () =
  let g = rng () in
  let thresholds = Sampler_prog.cdt_thresholds ~sigma:3.19 in
  let magnitude u = Array.fold_left (fun acc t -> if t < u then acc + 1 else acc) 0 thresholds in
  List.iter
    (fun v ->
      for _ = 1 to 50 do
        let u, sgn = Sampler_prog.cdt_force_draw g ~sigma:3.19 ~value:v in
        let m = magnitude u in
        let produced = if sgn = 1 then -m else m in
        Alcotest.(check int) (Printf.sprintf "forced %d" v) v produced
      done)
    [ 0; 1; -1; 5; -5; 14; -14 ]

let test_cdt_firmware_semantics () =
  (* run the CDT firmware directly with crafted entropy *)
  let layout = Sampler_prog.default_layout in
  let prog = Sampler_prog.build ~variant:Sampler_prog.Cdt_table ~n:3 ~k:1 () in
  let mem = Memory.create layout.Sampler_prog.ram_size in
  Memory.load_program mem 0 prog.Asm.words;
  Sampler_prog.stage_moduli mem layout [| 132120577 |];
  let thresholds = Sampler_prog.cdt_thresholds ~sigma:3.19 in
  Sampler_prog.stage_cdt_table mem thresholds;
  (* entropy: u below every threshold -> magnitude 0; u above the 2nd
     threshold but not the 3rd -> magnitude 2 *)
  let u_for m = if m = 0 then 0 else thresholds.(m - 1) + 1 in
  Sampler_prog.install_cdt_port mem ~draws:[| (u_for 0, 0); (u_for 2, 0); (u_for 3, 1) |];
  let cpu = Cpu.create mem in
  ignore (Cpu.run ~max_steps:1_000_000 cpu);
  let poly = Sampler_prog.read_poly mem layout ~n:3 ~k:1 in
  Alcotest.(check int) "zero" 0 poly.(0).(0);
  Alcotest.(check int) "+2" 2 poly.(0).(1);
  Alcotest.(check int) "-3 stored as q-3" (132120577 - 3) poly.(0).(2)

let test_cdt_constant_scan_length () =
  (* the scan executes the same instruction count whatever the value *)
  let run_count v =
    let layout = Sampler_prog.default_layout in
    let prog = Sampler_prog.build ~variant:Sampler_prog.Cdt_table ~n:1 ~k:1 () in
    let mem = Memory.create layout.Sampler_prog.ram_size in
    Memory.load_program mem 0 prog.Asm.words;
    Sampler_prog.stage_moduli mem layout [| 132120577 |];
    Sampler_prog.stage_cdt_table mem (Sampler_prog.cdt_thresholds ~sigma:3.19);
    let g = Mathkit.Prng.create ~seed:5L () in
    Sampler_prog.install_cdt_port mem ~draws:[| Sampler_prog.cdt_force_draw g ~sigma:3.19 ~value:v |];
    let recorder = Trace.recorder () in
    let cpu = Cpu.create ~tracer:(Trace.record recorder) mem in
    ignore (Cpu.run ~max_steps:1_000_000 cpu);
    (* count instructions inside the dist subroutine's scan loop *)
    Array.length (Trace.events recorder)
  in
  (* same-sign values must execute identical counts (the scan is
     constant-time, and the assignment body is branchless); the only
     data-dependent instruction left is the sign-branch negation *)
  Alcotest.(check int) "positive scan constant" (run_count 3) (run_count 9);
  Alcotest.(check int) "negative scan constant" (run_count (-3)) (run_count (-9));
  Alcotest.(check int) "negation is the single residual instruction" (run_count 3 + 1) (run_count (-3))

let cdt_cases =
  [
    ("cdt thresholds monotone", test_cdt_thresholds_monotone);
    ("cdt draw distribution", test_cdt_draws_distribution);
    ("cdt force draw hits band", test_cdt_force_draw_hits_band);
    ("cdt firmware semantics", test_cdt_firmware_semantics);
    ("cdt constant scan length", test_cdt_constant_scan_length);
  ]

let suite = suite @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) cdt_cases
