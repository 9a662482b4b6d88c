(* Tests for the leaklint constant-time analyzer: CFG recovery, taint
   classification on crafted programs, the differential oracle, and the
   paper's verdict table over the four sampler firmware variants. *)

open Ctcheck
module A = Riscv.Asm
module I = Riscv.Inst
module SP = Riscv.Sampler_prog

let t0 = I.t 0
let t1 = I.t 1
let t2 = I.t 2
let a0 = I.a 0
let a1 = I.a 1
let s4 = I.s 4

let ins = A.ins
let asm = A.assemble

let inst_addrs g =
  List.concat_map (fun (b : Cfg.block) -> Array.to_list (Array.map fst b.Cfg.insts)) (Cfg.blocks g)

let kind_addr (f : Finding.t) = (f.Finding.kind, f.Finding.addr)
let kind_pp = Fmt.of_to_string Finding.kind_name
let kind_testable = Alcotest.testable kind_pp ( = )
let finding_key = Alcotest.(list (pair kind_testable int))

let static_findings p = Lint.analyze_program p

(* --- CFG recovery ------------------------------------------------------ *)

let cfg_single_block () =
  let p = asm [ ins (I.Addi (t0, I.x0, 1)); ins (I.Add (t1, t0, t0)); A.halt ] in
  let g = Cfg.build p in
  Alcotest.(check int) "one block" 1 (List.length (Cfg.blocks g));
  let b = Cfg.block g 0 in
  Alcotest.(check bool) "halts" true (b.Cfg.term = Cfg.Halt);
  Alcotest.(check (list (pair int int))) "no back edges" [] (Cfg.back_edges g);
  Alcotest.(check bool) "no indirect" false (Cfg.has_indirect g)

let cfg_unreachable_after_halt () =
  let p = asm [ ins (I.Addi (t0, I.x0, 1)); A.halt; ins (I.Addi (t1, I.x0, 2)) ] in
  (* Append a word no decoder accepts: unreachable data must never be
     decoded, so the build cannot raise. *)
  let p = { p with A.words = Array.append p.A.words [| 0xFFFFFFFFl |] } in
  let g = Cfg.build p in
  let addrs = inst_addrs g in
  Alcotest.(check bool) "entry decoded" true (List.mem 0 addrs);
  Alcotest.(check bool) "post-halt addi unreachable" false (List.mem 8 addrs);
  Alcotest.(check bool) "data word unreachable" false (List.mem 12 addrs)

let cfg_reachable_illegal_word () =
  (* A *reachable* illegal word acts as a fetch fault: the block ends
     with Halt instead of crashing the analyzer. *)
  let p = asm [ ins (I.Addi (t0, I.x0, 1)) ] in
  let p = { p with A.words = Array.append p.A.words [| 0xFFFFFFFFl |] } in
  let g = Cfg.build p in
  let b = Cfg.block g 0 in
  Alcotest.(check bool) "fetch fault halts" true (b.Cfg.term = Cfg.Halt);
  Alcotest.(check int) "only the legal inst" 1 (Array.length b.Cfg.insts)

let cfg_loop_back_edge () =
  let p =
    asm
      [
        ins (I.Addi (t0, I.x0, 4));
        A.label "loop";
        ins (I.Addi (t0, t0, -1));
        A.bne t0 I.x0 "loop";
        A.halt;
      ]
  in
  let g = Cfg.build p in
  let loop = A.label_address p "loop" in
  Alcotest.(check (list (pair int int))) "one back edge into loop" [ (loop, loop) ] (Cfg.back_edges g)

let cfg_call_return () =
  let p =
    asm
      [
        A.call "fn";
        A.halt;
        A.label "fn";
        ins (I.Addi (a0, I.x0, 1));
        A.ret;
      ]
  in
  let g = Cfg.build p in
  Alcotest.(check (list int)) "return site discovered" [ 4 ] (Cfg.call_returns g);
  let fn = Cfg.block g (A.label_address p "fn") in
  Alcotest.(check bool) "ret terminator" true (fn.Cfg.term = Cfg.Return);
  Alcotest.(check (list int)) "ret flows to the call-return site" [ 4 ] fn.Cfg.succs

let cfg_indirect_conservative () =
  let p =
    asm
      [
        A.la t0 "target";
        ins (I.Jalr (I.x0, t0, 0));
        A.label "dead";
        A.halt;
        A.label "target";
        A.halt;
      ]
  in
  let g = Cfg.build p in
  Alcotest.(check bool) "indirect jump seen" true (Cfg.has_indirect g);
  let entry = Cfg.block g 0 in
  Alcotest.(check bool) "indirect terminator" true (entry.Cfg.term = Cfg.Indirect);
  let lbl name = A.label_address p name in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is a conservative target") true (List.mem (lbl name) entry.Cfg.succs))
    [ "dead"; "target" ]

(* --- Taint classification on crafted programs -------------------------- *)

let noise_base = [ A.li s4 Riscv.Memory.mmio_base ]

let taint_secret_branch () =
  let p =
    asm
      (noise_base
      @ [ ins (I.Lw (a0, s4, 0)); A.beq a0 I.x0 "out"; ins (I.Addi (t0, I.x0, 1)); A.label "out"; A.halt ])
  in
  let fs = static_findings p in
  Alcotest.(check bool) "branch flagged" true
    (List.exists (fun f -> f.Finding.kind = Finding.Secret_branch) fs);
  Alcotest.(check bool) "bus flagged at the load" true
    (List.exists (fun f -> f.Finding.kind = Finding.Secret_bus && f.Finding.inst = I.Lw (a0, s4, 0)) fs)

let taint_rejection_port_public () =
  (* The rejection-count port is deliberately public: branching on it
     must not raise findings. *)
  let p =
    asm
      (noise_base
      @ [ ins (I.Lw (a0, s4, 4)); A.beq a0 I.x0 "out"; ins (I.Addi (t0, I.x0, 1)); A.label "out"; A.halt ])
  in
  Alcotest.(check finding_key) "clean" [] (List.map kind_addr (static_findings p))

let taint_secret_mem_addr () =
  let poly = SP.default_layout.SP.poly_base in
  let p =
    asm
      (noise_base
      @ [
          ins (I.Lw (a0, s4, 0));
          ins (I.Slli (a0, a0, 2));
          A.li t1 poly;
          ins (I.Add (t2, t1, a0));
          ins (I.Lw (a1, t2, 0));
          A.halt;
        ])
  in
  let fs = static_findings p in
  Alcotest.(check bool) "secret-indexed load flagged" true
    (List.exists (fun f -> f.Finding.kind = Finding.Secret_mem_addr && f.Finding.inst = I.Lw (a1, t2, 0)) fs)

let taint_laundering_through_memory () =
  (* Secrecy must survive a round trip through RAM. *)
  let p =
    asm
      (noise_base
      @ [
          ins (I.Lw (a0, s4, 0));
          ins (I.Sw (a0, I.x0, 64));
          ins (I.Lw (a1, I.x0, 64));
          A.beq a1 I.x0 "out";
          ins (I.Addi (t0, I.x0, 1));
          A.label "out";
          A.halt;
        ])
  in
  Alcotest.(check bool) "branch after RAM round trip flagged" true
    (List.exists (fun f -> f.Finding.kind = Finding.Secret_branch) (static_findings p))

let taint_staged_tables_public () =
  (* Host-staged tables (unwritten regions) read back public: a branch
     on a modulus word is fine. *)
  let p =
    asm
      [
        A.li t1 SP.default_layout.SP.moduli_base;
        ins (I.Lw (a0, t1, 0));
        A.beq a0 I.x0 "out";
        ins (I.Addi (t0, I.x0, 1));
        A.label "out";
        A.halt;
      ]
  in
  Alcotest.(check finding_key) "clean" [] (List.map kind_addr (static_findings p))

(* --- Differential oracle ------------------------------------------------ *)

let run_crafted p ~secret =
  let mem = Riscv.Memory.create SP.default_layout.SP.ram_size in
  Riscv.Memory.load_program mem 0 p.A.words;
  SP.install_noise_port mem ~draws:[| (secret, 2) |];
  let r = Riscv.Trace.recorder () in
  let cpu = Riscv.Cpu.create ~tracer:(Riscv.Trace.record r) mem in
  ignore (Riscv.Cpu.run ~max_steps:10_000 cpu);
  Riscv.Trace.events r

let oracle_confirms_real_branch () =
  let p =
    asm
      (noise_base
      @ [ ins (I.Lw (a0, s4, 0)); A.beq a0 I.x0 "out"; ins (I.Addi (t0, I.x0, 1)); A.label "out"; A.halt ])
  in
  let fs = Oracle.confirm_all ~run:(run_crafted p) (static_findings p) in
  let branch = List.find (fun f -> f.Finding.kind = Finding.Secret_branch) fs in
  Alcotest.(check bool) "confirmed" true (Finding.is_confirmed branch);
  match branch.Finding.confirmation with
  | Finding.Confirmed w -> Alcotest.(check (pair int int)) "zero/non-zero pair" (0, 1) (w.Finding.secret_lo, w.Finding.secret_hi)
  | Finding.Static_only -> Alcotest.fail "expected a witness"

let oracle_refutes_masked_branch () =
  (* [andi a0, a0, 0] kills the secret dynamically, but the static
     abstraction keeps the taint: the oracle must refuse to confirm. *)
  let p =
    asm
      (noise_base
      @ [
          ins (I.Lw (a0, s4, 0));
          ins (I.Andi (a0, a0, 0));
          A.beq a0 I.x0 "out";
          ins (I.Addi (t0, I.x0, 1));
          A.label "out";
          A.halt;
        ])
  in
  let fs = static_findings p in
  let branch = List.find (fun f -> f.Finding.kind = Finding.Secret_branch) fs in
  let confirmed = List.hd (Oracle.confirm_all ~run:(run_crafted p) [ branch ]) in
  Alcotest.(check bool) "static only" false (Finding.is_confirmed confirmed)

(* --- The paper's verdict table ------------------------------------------ *)

let variant_case (name, variant, expected_kinds, expected_violations) =
  let check () =
    let r = Lint.analyze_variant ~n:2 ~k:1 variant in
    Alcotest.(check (list string)) "no drift from the verdict table" [] (Lint.check r);
    Alcotest.(check (list kind_testable)) "finding kinds, in address order" expected_kinds
      (List.map (fun f -> f.Finding.kind) r.Lint.findings);
    Alcotest.(check int) "violations" expected_violations (List.length (Lint.violations r));
    List.iter
      (fun f ->
        Alcotest.(check bool) (Finding.to_string f ^ " confirmed") true (Finding.is_confirmed f))
      r.Lint.findings
  in
  Alcotest.test_case (Printf.sprintf "verdict table: %s" name) `Slow check

let verdict_cases =
  let b = Finding.Secret_branch and c = Finding.Secret_count and u = Finding.Secret_bus in
  List.map variant_case
    [
      ("vulnerable", SP.Vulnerable, [ b; b; u; u; c; u; u; u ], 3);
      ("branchless", SP.Branchless, [ u; u; u ], 0);
      ("shuffled", SP.Shuffled, [ b; b; u; u; c; u; u; u ], 3);
      ("cdt", SP.Cdt_table, [ u; u; u; u; b; c ], 2);
    ]

(* --- Invariance properties ---------------------------------------------- *)

let variants = [| SP.Vulnerable; SP.Branchless; SP.Shuffled; SP.Cdt_table |]

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"lint verdict invariant under codec round trip" ~count:8 (int_bound 3)
      (fun vi ->
        let p = SP.build ~variant:variants.(vi) ~n:1 ~k:1 () in
        let insts = Array.to_list (Array.map Riscv.Codec.decode p.A.words) in
        let p' = A.assemble (List.map A.ins insts) in
        List.map kind_addr (static_findings p) = List.map kind_addr (static_findings p'));
  ]

let suite =
  [
    Alcotest.test_case "cfg: single block" `Quick cfg_single_block;
    Alcotest.test_case "cfg: unreachable words stay undecoded" `Quick cfg_unreachable_after_halt;
    Alcotest.test_case "cfg: reachable illegal word is a fetch fault" `Quick cfg_reachable_illegal_word;
    Alcotest.test_case "cfg: loop back edge" `Quick cfg_loop_back_edge;
    Alcotest.test_case "cfg: call/return linking" `Quick cfg_call_return;
    Alcotest.test_case "cfg: indirect jalr joins all labels" `Quick cfg_indirect_conservative;
    Alcotest.test_case "taint: secret branch + bus" `Quick taint_secret_branch;
    Alcotest.test_case "taint: rejection port is public" `Quick taint_rejection_port_public;
    Alcotest.test_case "taint: secret-indexed address" `Quick taint_secret_mem_addr;
    Alcotest.test_case "taint: laundering through memory" `Quick taint_laundering_through_memory;
    Alcotest.test_case "taint: staged tables are public" `Quick taint_staged_tables_public;
    Alcotest.test_case "oracle: confirms a real secret branch" `Quick oracle_confirms_real_branch;
    Alcotest.test_case "oracle: refutes a masked branch" `Quick oracle_refutes_masked_branch;
  ]
  @ verdict_cases
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
