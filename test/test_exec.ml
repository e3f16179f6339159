(* The user-mode interpreter: ALU semantics, flags, translated memory
   access, faults, control flow, SVC and interrupt delivery. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Ptable = Komodo_machine.Ptable
module Insn = Komodo_machine.Insn
module Exec = Komodo_machine.Exec
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Psr = Komodo_machine.Psr

let w = Word.of_int
let r n = Regs.R n
let imm n = Insn.Imm (w n)
let reg n = Insn.Reg (r n)

(* A small machine: code at VA 0, a RW data page at VA 0x1000, a RO
   page at VA 0x2000. Physical frames in an arbitrary "secure" area. *)
let l1_base = w 0x40_0000
let l2_base = w 0x41_0000
let code_frame = w 0x50_0000
let data_frame = w 0x51_0000
let ro_frame = w 0x52_0000

let machine_with prog =
  let m = Memory.store Memory.empty l1_base (Ptable.make_l1e ~l2pt_base:l2_base) in
  let map m va frame perms =
    Memory.store m
      (Word.add l2_base (w (4 * Ptable.l2_index (w va))))
      (Ptable.make_l2e ~base:frame ~ns:false perms)
  in
  let m = map m 0x0000 code_frame Ptable.rx in
  let m = map m 0x1000 data_frame Ptable.rw in
  let m = map m 0x2000 ro_frame Ptable.r_only in
  (* Lay the program image down in the code frame. *)
  let body = Insn.encode_program prog in
  let image = Exec.code_magic :: w (List.length body) :: body in
  let m = Memory.store_range m code_frame image in
  {
    State.initial with
    State.mem = m;
    ttbr0_s = l1_base;
    cpsr = Psr.user_entry;
  }

let run ?(fuel = 10_000) ?budget prog =
  let s = machine_with prog in
  let s = { s with State.irq_budget = budget } in
  Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel ~native:(fun _ -> None)

let reg_of s n = Word.to_int (State.read_reg s (r n))

let expect_exit ?fuel ?budget prog =
  match run ?fuel ?budget prog with
  | s, Exec.Ev_svc _ -> s
  | _, e -> Alcotest.failf "expected SVC exit, got %s" (Exec.show_event e)

let exit_seq = [ Insn.I (Insn.Mov (r 0, imm 0)); Insn.I (Insn.Svc Word.zero) ]

let test_alu () =
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 1, imm 10));
         Insn.I (Insn.Add (r 2, r 1, imm 5));
         Insn.I (Insn.Sub (r 3, r 1, imm 5));
         Insn.I (Insn.Rsb (r 4, r 1, imm 25));
         Insn.I (Insn.Mul (r 5, r 1, r 1));
         Insn.I (Insn.And_ (r 6, r 1, imm 0b1100));
         Insn.I (Insn.Orr (r 7, r 1, imm 0b0001));
         Insn.I (Insn.Eor (r 8, r 1, imm 0b1111));
         Insn.I (Insn.Bic (r 9, r 1, imm 0b0010));
         Insn.I (Insn.Mvn (r 10, imm 0));
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "add" 15 (reg_of s 2);
  Alcotest.(check int) "sub" 5 (reg_of s 3);
  Alcotest.(check int) "rsb" 15 (reg_of s 4);
  Alcotest.(check int) "mul" 100 (reg_of s 5);
  Alcotest.(check int) "and" 0b1000 (reg_of s 6);
  Alcotest.(check int) "orr" 0b1011 (reg_of s 7);
  Alcotest.(check int) "eor" 0b0101 (reg_of s 8);
  Alcotest.(check int) "bic" 0b1000 (reg_of s 9);
  Alcotest.(check int) "mvn" 0xFFFF_FFFF (reg_of s 10)

let test_shifts () =
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 1, imm 0x80));
         Insn.I (Insn.Lsl (r 2, r 1, imm 4));
         Insn.I (Insn.Lsr (r 3, r 1, imm 4));
         Insn.I (Insn.Mov (r 4, imm 0x4000_0000));
         Insn.I (Insn.Ror (r 5, r 1, imm 8));
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "lsl" 0x800 (reg_of s 2);
  Alcotest.(check int) "lsr" 0x8 (reg_of s 3);
  Alcotest.(check int) "ror" 0x8000_0000 (reg_of s 5)

let test_cmn_flags () =
  (* CMN r1, r2 with r1 = -5 (two's complement) and r2 = 5: sum is zero,
     carry out set. *)
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mvn (r 1, imm 4)) (* 0xFFFFFFFB = -5 *);
         Insn.I (Insn.Mov (r 2, imm 5));
         Insn.I (Insn.Cmn (r 1, reg 2));
         Insn.If (Insn.EQ, [ Insn.I (Insn.Mov (r 3, imm 1)) ], [ Insn.I (Insn.Mov (r 3, imm 0)) ]);
         Insn.If (Insn.CS, [ Insn.I (Insn.Mov (r 4, imm 1)) ], [ Insn.I (Insn.Mov (r 4, imm 0)) ]);
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "zero flag from sum" 1 (reg_of s 3);
  Alcotest.(check int) "carry out" 1 (reg_of s 4)

let test_cmp_flags_loop () =
  (* sum 1..5 with a LS loop *)
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 0, imm 5));
         Insn.I (Insn.Mov (r 3, imm 0));
         Insn.I (Insn.Mov (r 4, imm 1));
         Insn.I (Insn.Cmp (r 4, reg 0));
         Insn.While
           ( Insn.LS,
             [
               Insn.I (Insn.Add (r 3, r 3, reg 4));
               Insn.I (Insn.Add (r 4, r 4, imm 1));
               Insn.I (Insn.Cmp (r 4, reg 0));
             ] );
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "sum 1..5" 15 (reg_of s 3)

let test_if_else () =
  let branchy v expected =
    let s =
      expect_exit
        ([
           Insn.I (Insn.Mov (r 1, imm v));
           Insn.I (Insn.Cmp (r 1, imm 10));
           Insn.If
             ( Insn.LT,
               [ Insn.I (Insn.Mov (r 2, imm 111)) ],
               [ Insn.I (Insn.Mov (r 2, imm 222)) ] );
         ]
        @ exit_seq)
    in
    Alcotest.(check int) (Printf.sprintf "v=%d" v) expected (reg_of s 2)
  in
  branchy 5 111;
  branchy 15 222

let test_memory_access () =
  let s =
    expect_exit
      ([
         Insn.I (Insn.Mov (r 1, imm 0x1000));
         Insn.I (Insn.Mov (r 2, imm 0xCAFE));
         Insn.I (Insn.Str (r 2, r 1, imm 8));
         Insn.I (Insn.Ldr (r 3, r 1, imm 8));
       ]
      @ exit_seq)
  in
  Alcotest.(check int) "store/load via va" 0xCAFE (reg_of s 3);
  (* The store landed in the mapped physical frame. *)
  Alcotest.(check int) "physical landing" 0xCAFE
    (Word.to_int (Memory.load s.State.mem (Word.add data_frame (w 8))))

let expect_fault prog fault =
  match run prog with
  | _, Exec.Ev_fault f ->
      Alcotest.(check bool) (Exec.show_fault fault) true (Exec.equal_fault f fault)
  | _, e -> Alcotest.failf "expected fault, got %s" (Exec.show_event e)

let test_fault_unmapped () =
  expect_fault
    [ Insn.I (Insn.Mov (r 1, imm 0x9000)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]
    Exec.Translation

let test_fault_write_ro () =
  expect_fault
    [ Insn.I (Insn.Mov (r 1, imm 0x2000)); Insn.I (Insn.Str (r 1, r 1, imm 0)) ]
    Exec.Permission

let test_fault_unaligned () =
  expect_fault
    [ Insn.I (Insn.Mov (r 1, imm 0x1001)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]
    Exec.Alignment

let test_fault_undef () =
  expect_fault [ Insn.I Insn.Udf ] Exec.Undef_insn

let test_fault_falloff () =
  (* Falling off the end of the program is a prefetch abort. *)
  expect_fault [ Insn.I Insn.Nop ] Exec.Prefetch

let test_reads_allowed_on_ro () =
  let s =
    expect_exit
      ([ Insn.I (Insn.Mov (r 1, imm 0x2000)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]
      @ exit_seq)
  in
  Alcotest.(check int) "ro read ok" 0 (reg_of s 2)

let test_svc_args () =
  let s, e =
    run
      [
        Insn.I (Insn.Mov (r 0, imm 3));
        Insn.I (Insn.Mov (r 1, imm 77));
        Insn.I (Insn.Svc (w 0));
      ]
  in
  (match e with
  | Exec.Ev_svc _ -> ()
  | e -> Alcotest.failf "expected svc, got %s" (Exec.show_event e));
  Alcotest.(check int) "r0 carries call" 3 (reg_of s 0);
  Alcotest.(check int) "r1 carries arg" 77 (reg_of s 1);
  (* The banked resume PC points past the SVC. *)
  Alcotest.(check int) "upc after svc" 3 (Word.to_int s.State.upc)

let test_irq_budget () =
  let s, e = run ~budget:10 [ Insn.While (Insn.AL, [ Insn.I Insn.Nop ]) ] in
  (match e with
  | Exec.Ev_irq -> ()
  | e -> Alcotest.failf "expected irq, got %s" (Exec.show_event e));
  Alcotest.(check bool) "budget consumed" true (s.State.irq_budget = Some 0)

let test_fuel_exhaustion_is_irq () =
  let _, e = run ~fuel:50 [ Insn.While (Insn.AL, [ Insn.I Insn.Nop ]) ] in
  match e with
  | Exec.Ev_irq -> ()
  | e -> Alcotest.failf "expected irq on fuel exhaustion, got %s" (Exec.show_event e)

let test_resume_mid_program () =
  (* Interrupt a counting loop, then resume from the saved pc and check
     the count completes as if uninterrupted. *)
  let prog =
    [
      Insn.I (Insn.Mov (r 3, imm 0));
      Insn.I (Insn.Mov (r 4, imm 1));
      Insn.I (Insn.Cmp (r 4, imm 100));
      Insn.While
        ( Insn.LS,
          [
            Insn.I (Insn.Add (r 3, r 3, reg 4));
            Insn.I (Insn.Add (r 4, r 4, imm 1));
            Insn.I (Insn.Cmp (r 4, imm 100));
          ] );
    ]
    @ exit_seq
  in
  let s, e = run ~budget:57 prog in
  (match e with Exec.Ev_irq -> () | e -> Alcotest.failf "want irq, got %s" (Exec.show_event e));
  let resume_pc = Word.to_int s.State.upc in
  let s = { s with State.irq_budget = None } in
  let s, e = Exec.run s ~entry_va:Word.zero ~start_pc:resume_pc ~fuel:10_000 ~native:(fun _ -> None) in
  (match e with Exec.Ev_svc _ -> () | e -> Alcotest.failf "want exit, got %s" (Exec.show_event e));
  Alcotest.(check int) "sum 1..100 despite interrupt" 5050 (reg_of s 3)

let test_bad_image () =
  (* Entry page without the code magic: prefetch abort. *)
  let s = machine_with [ Insn.I Insn.Nop ] in
  let s = { s with State.mem = Memory.store s.State.mem code_frame (w 0x1234) } in
  match Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel:100 ~native:(fun _ -> None) with
  | _, Exec.Ev_fault Exec.Prefetch -> ()
  | _, e -> Alcotest.failf "expected prefetch abort, got %s" (Exec.show_event e)

let test_native_dispatch () =
  (* A native page naming an unregistered service faults Undef. *)
  let s = machine_with [ Insn.I Insn.Nop ] in
  let s =
    { s with State.mem = Memory.store_range s.State.mem code_frame [ Exec.native_magic; w 99 ] }
  in
  (match Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel:100 ~native:(fun _ -> None) with
  | _, Exec.Ev_fault Exec.Undef_insn -> ()
  | _, e -> Alcotest.failf "expected undef, got %s" (Exec.show_event e));
  (* A registered one runs. *)
  let native id =
    if id = 99 then
      Some (fun st -> { Exec.nstate = State.write_reg st (r 1) (w 0x77); nevent = Exec.Ev_svc Word.zero })
    else None
  in
  match Exec.run s ~entry_va:Word.zero ~start_pc:0 ~fuel:100 ~native with
  | st, Exec.Ev_svc _ -> Alcotest.(check int) "native ran" 0x77 (reg_of st 1)
  | _, e -> Alcotest.failf "expected native svc, got %s" (Exec.show_event e)

let test_cycles_charged () =
  let s, _ = run (List.init 20 (fun _ -> Insn.I Insn.Nop) @ exit_seq) in
  Alcotest.(check bool) "cycles > 20" true (s.State.cycles >= 20)

(* Property: programs without memory ops, SVC, or UDF either exit at the
   final SVC we append or hit the fall-off prefetch fault — never any
   other fault. *)
let arb_pure_insn =
  QCheck.Gen.(
    let reg = map (fun n -> Regs.R n) (int_bound 12) in
    let operand =
      oneof [ map (fun r -> Insn.Reg r) reg; map (fun n -> Insn.Imm (Word.of_int n)) (int_bound 1000) ]
    in
    oneof
      [
        map2 (fun r o -> Insn.Mov (r, o)) reg operand;
        map3 (fun a b o -> Insn.Add (a, b, o)) reg reg operand;
        map3 (fun a b o -> Insn.Eor (a, b, o)) reg reg operand;
        map2 (fun r o -> Insn.Cmp (r, o)) reg operand;
      ])

let prop_pure_programs_exit =
  QCheck.Test.make ~name:"pure straight-line programs exit cleanly" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) (map (fun i -> Insn.I i) arb_pure_insn)))
    (fun body ->
      match run (body @ exit_seq) with
      | _, Exec.Ev_svc _ -> true
      | _ -> false)

(* -- The injection hook's contract ------------------------------------- *)

module Inject = Komodo_fault.Inject
module Platform = Komodo_tz.Platform

let spin = [ Insn.While (Insn.AL, [ Insn.I Insn.Nop ]) ]

let run_hooked ?(fuel = 10_000) ?budget ~inject s =
  let steps = ref (-1) in
  let s, e =
    Exec.run
      ~probe:(fun ~steps:n -> steps := n)
      ~inject
      { s with State.irq_budget = budget }
      ~entry_va:Word.zero ~start_pc:0 ~fuel ~native:(fun _ -> None)
  in
  (s, e, !steps)

let test_hook_boundaries () =
  (* The hook is asked once at the top of every step, including the
     step that ends the burst on fuel, budget or a bad pc; an SVC or a
     fault ends the burst inside its step, so no boundary follows it. *)
  let asked_on ?fuel ?budget prog =
    let asked = ref 0 in
    let inject () =
      incr asked;
      None
    in
    let _, _, steps = run_hooked ?fuel ?budget ~inject (machine_with prog) in
    (!asked, steps)
  in
  let check name want got = Alcotest.(check (pair int int)) name want got in
  check "fuel" (51, 50) (asked_on ~fuel:50 spin);
  check "fuel 0" (1, 0) (asked_on ~fuel:0 spin);
  check "budget" (8, 7) (asked_on ~budget:7 spin);
  check "budget 0" (1, 0) (asked_on ~budget:0 spin);
  check "bad pc" (2, 1) (asked_on [ Insn.I Insn.Nop ]);
  check "svc" (2, 2) (asked_on exit_seq);
  check "data abort" (2, 2)
    (asked_on [ Insn.I (Insn.Mov (r 1, imm 0x9000)); Insn.I (Insn.Ldr (r 2, r 1, imm 0)) ]);
  (* A bad image never reaches the interpreter. *)
  let asked = ref 0 in
  let s = machine_with [ Insn.I Insn.Nop ] in
  let s = { s with State.mem = Memory.store s.State.mem code_frame (w 0x1234) } in
  let _ = run_hooked ~inject:(fun () -> incr asked; None) s in
  Alcotest.(check int) "bad image" 0 !asked

let injector items =
  let inj = Inject.create ~plat:Platform.default () in
  Inject.arm inj items;
  inj

let at k action = { Inject.point = Inject.Insn k; action }

let test_hook_insn_irq () =
  let inj = injector [ at 5 Inject.Irq ] in
  let s, e, steps =
    run_hooked ~inject:(Inject.exec_inject inj)
      (machine_with (List.init 20 (fun _ -> Insn.I Insn.Nop) @ exit_seq))
  in
  Alcotest.(check bool) "irq" true (Exec.equal_event e Exec.Ev_irq);
  Alcotest.(check int) "upc = k" 5 (Word.to_int s.State.upc);
  Alcotest.(check int) "retired before it" 5 steps;
  Alcotest.(check (list (pair string string))) "fired" [ ("insn:5", "irq") ] (Inject.fired inj)

let load_twice =
  [
    Insn.I (Insn.Mov (r 1, imm 0x1000));
    Insn.I (Insn.Ldr (r 2, r 1, imm 0));
    Insn.I (Insn.Ldr (r 3, r 1, imm 0));
  ]
  @ exit_seq

let test_hook_mem_write () =
  (* The write lands at the top of step 2: the load at boundary 1 reads
     the old word, the load at boundary 2 the injected one. *)
  let addr = Word.to_int data_frame in
  let inj = injector [ at 2 (Inject.Mem_write { addr; value = 0xBEEF }) ] in
  let s, e, _ = run_hooked ~inject:(Inject.exec_inject inj) (machine_with load_twice) in
  Alcotest.(check bool) "ran to the exit" true (Exec.equal_event e (Exec.Ev_svc Word.zero));
  Alcotest.(check int) "load before" 0 (reg_of s 2);
  Alcotest.(check int) "load at boundary k" 0xBEEF (reg_of s 3);
  Alcotest.(check int) "fired" 1 (Inject.fired_count inj)

let test_hook_secure_write_dropped () =
  (* The same program reading a secure frame: the TZASC drops the
     injected store, so both loads see the frame's own contents. *)
  let secure = Platform.page_base Platform.default 0 in
  let s = machine_with load_twice in
  let s =
    {
      s with
      State.mem =
        Memory.store s.State.mem
          (Word.add l2_base (w (4 * Ptable.l2_index (w 0x1000))))
          (Ptable.make_l2e ~base:secure ~ns:false Ptable.rw);
    }
  in
  let inj = injector [ at 2 (Inject.Mem_write { addr = Word.to_int secure; value = 0xBAD }) ] in
  let s', _, _ = run_hooked ~inject:(Inject.exec_inject inj) s in
  Alcotest.(check int) "load at boundary k" 0 (reg_of s' 3);
  Alcotest.(check bool) "memory untouched" true (Memory.equal s.State.mem s'.State.mem);
  Alcotest.(check int) "nothing fired" 0 (Inject.fired_count inj)

let test_hook_idle () =
  (* Armed only for other kinds of point, or for a boundary the burst
     never reaches, the injector answers every boundary with [None] —
     without allocating — and is never handed a state. *)
  let items =
    [
      { Inject.point = Inject.Commit; action = Inject.Irq };
      { Inject.point = Inject.Lockstep 0; action = Inject.Irq };
      at 10_000 Inject.Irq;
    ]
  in
  let inj = injector items in
  let due = Inject.exec_inject inj in
  let handed = ref 0 in
  let inject () =
    Option.map
      (fun fire s ->
        incr handed;
        fire s)
      (due ())
  in
  let _, e, steps = run_hooked ~fuel:100 ~inject (machine_with spin) in
  Alcotest.(check bool) "ran out of fuel" true (Exec.equal_event e Exec.Ev_irq);
  Alcotest.(check int) "steps" 100 steps;
  Alcotest.(check int) "never handed a state" 0 !handed;
  Alcotest.(check int) "nothing fired" 0 (Inject.fired_count inj);
  let inj = injector items in
  let due = Inject.exec_inject inj in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (due ()))
  done;
  Alcotest.(check bool) "no allocation per boundary" true (Gc.minor_words () -. before < 100.)

(* Eight stores to one data page, with an add between each. *)
let store_burst =
  Insn.I (Insn.Mov (r 1, imm 0x1000))
  :: Insn.I (Insn.Mov (r 2, imm 1))
  :: List.concat
       (List.init 8 (fun i ->
            [ Insn.I (Insn.Str (r 2, r 1, imm (4 * i))); Insn.I (Insn.Add (r 2, r 2, imm 1)) ]))
  @ exit_seq

let test_hook_keeps_states () =
  (* A burst writes its pages in place until it hands out a state. A hook
     that fires every [k]th boundary keeps each state it is handed; once
     the burst is over, each must still read as it did then, and so must
     the pre-burst state. Handing the state straight back changes nothing:
     the burst ends as it does with no hook. *)
  let page (s : State.t) = List.map Word.to_int (Memory.load_range s.State.mem data_frame 16) in
  let s0 = machine_with store_burst in
  let before = page s0 in
  let plain, plain_e, _ = run_hooked ~inject:(fun () -> None) s0 in
  Alcotest.(check (list int)) "the burst stores 1..8" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.filteri (fun i _ -> i < 8) (page plain));
  List.iter
    (fun k ->
      let n = ref 0 and kept = ref [] in
      let inject () =
        incr n;
        if !n mod k <> 0 then None
        else
          Some
            (fun s ->
              kept := (s, page s) :: !kept;
              (s, None))
      in
      let s, e, _ = run_hooked ~inject s0 in
      let name what = Printf.sprintf "every %d: %s" k what in
      Alcotest.(check bool) (name "handed states") true (List.length !kept >= 18 / k);
      List.iter
        (fun (kept, seen) -> Alcotest.(check (list int)) (name "a kept state") seen (page kept))
        !kept;
      Alcotest.(check (list int)) (name "the pre-burst state") before (page s0);
      Alcotest.(check bool) (name "same event") true (Exec.equal_event plain_e e);
      Alcotest.(check bool) (name "same state") true (State.equal plain s);
      Alcotest.(check bool) (name "same memory") true (Memory.equal plain.State.mem s.State.mem);
      Alcotest.(check int) (name "same cycles") plain.State.cycles s.State.cycles)
    [ 1; 2; 3; 5 ]

(* -- Golden interpreter corpus ------------------------------------------ *)

(* Seeded random flat programs, each run at every combination of a few
   IRQ budgets and fuels. A run's observable outcome — event, resume PC,
   fault address, cycles, remaining budget, retired instructions, the 15
   user registers, the CPSR and a memory digest — is one row of
   [exec_corpus.expected]. That table was recorded with the interpreter
   that rebuilt [State.t] on every instruction, and is never regenerated
   to fit: any drift in the interpreter shows up as a changed row. *)

module Seedsplit = Komodo_rand.Seedsplit

let corpus_programs = 24
let corpus_budgets = [ None; Some 0; Some 1; Some 7; Some (-1) ]
let corpus_fuels = [ 0; 1; 50; 10_000 ]
let all_conds = Insn.[ EQ; NE; CS; CC; MI; PL; HI; LS; GE; LT; GT; LE; AL ]

(* Base registers r9-r12 point at the RW page, the RO page, an unmapped
   page and an unaligned address; loads and stores mostly go through
   them, at offsets that stay in the page, cross into the next one, or
   break alignment. *)
let corpus_bases = [ (9, 0x1000); (10, 0x2000); (11, 0x9000); (12, 0x1002) ]

let corpus_program seed =
  let st = Seedsplit.stream ~root:seed () in
  let pick n = Seedsplit.next st mod n in
  let choose l = List.nth l (pick (List.length l)) in
  (* Destinations and operands rarely touch the base registers, so most
     programs keep their addresses long enough to run a while. *)
  let reg () =
    match pick 16 with
    | 0 -> Regs.SP
    | 1 -> Regs.LR
    | 2 -> r (fst (choose corpus_bases))
    | _ -> r (pick 9)
  in
  let imm () =
    match pick 4 with
    | 0 -> Insn.Imm (w (pick 40))
    | 1 -> Insn.Imm (w (choose [ 0; 1; 31; 32; 33; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ]))
    | _ -> Insn.Imm (w (Seedsplit.next st))
  in
  let operand () = if pick 2 = 0 then Insn.Reg (reg ()) else imm () in
  let body_len = 6 + pick 26 in
  let len = List.length corpus_bases + body_len in
  (* Odd programs are calm: what ends a burst early (SVC, UDF, a faulting
     access, a jump out of the program) is rarer, so their bursts run
     long enough to loop through most of the body. *)
  let ends_burst () = seed mod 2 = 0 || pick 8 = 0 in
  let target () =
    if ends_burst () && pick 12 = 0 then choose [ -2; -1; len; len + 1 ] else pick len
  in
  let mem_base () =
    if not (ends_burst ()) then r 9
    else match pick 16 with 0 -> reg () | 1 -> r 11 | 2 -> r 12 | 3 | 4 | 5 -> r 10 | _ -> r 9
  in
  let offset () =
    Insn.Imm (w (choose (if ends_burst () then [ 0; 4; 8; 0xFFC; 0x1000; 2 ] else [ 0; 4; 8; 0xFFC ])))
  in
  let three f = Insn.FI (f (reg ()) (reg ()) (operand ())) in
  let fop () =
    match pick 40 with
    | 0 -> Insn.FI (if ends_burst () then Insn.Svc (w (pick 16)) else Insn.Nop)
    | 1 -> Insn.FI (if ends_burst () then Insn.Udf else Insn.Nop)
    | 2 | 3 -> Insn.FI Insn.Nop
    | 4 | 5 | 6 -> Insn.FJmp (target ())
    | 7 | 8 | 9 | 10 | 11 -> Insn.FJcc (choose all_conds, target ())
    | 12 | 13 | 14 | 15 -> Insn.FI (Insn.Ldr (reg (), mem_base (), offset ()))
    | 16 | 17 | 18 -> Insn.FI (Insn.Str (reg (), mem_base (), offset ()))
    | 19 -> Insn.FI (Insn.Cmp (reg (), operand ()))
    | 20 -> Insn.FI (Insn.Cmn (reg (), operand ()))
    | 21 -> Insn.FI (Insn.Tst (reg (), operand ()))
    | 22 -> Insn.FI (Insn.Mov (reg (), operand ()))
    | 23 -> Insn.FI (Insn.Mvn (reg (), operand ()))
    | 24 -> Insn.FI (Insn.Mul (reg (), reg (), reg ()))
    | 25 | 26 -> three (fun a b o -> Insn.Add (a, b, o))
    | 27 | 28 -> three (fun a b o -> Insn.Sub (a, b, o))
    | 29 -> three (fun a b o -> Insn.Rsb (a, b, o))
    | 30 -> three (fun a b o -> Insn.And_ (a, b, o))
    | 31 -> three (fun a b o -> Insn.Orr (a, b, o))
    | 32 -> three (fun a b o -> Insn.Eor (a, b, o))
    | 33 -> three (fun a b o -> Insn.Bic (a, b, o))
    | 34 -> three (fun a b o -> Insn.Lsl (a, b, o))
    | 35 -> three (fun a b o -> Insn.Lsr (a, b, o))
    | 36 -> three (fun a b o -> Insn.Asr (a, b, o))
    | 37 -> three (fun a b o -> Insn.Ror (a, b, o))
    | _ -> Insn.FI (Insn.Cmp (reg (), imm ()))
  in
  let prefix = List.map (fun (n, a) -> Insn.FI (Insn.Mov (r n, Insn.Imm (w a)))) corpus_bases in
  let prog = Array.of_list (prefix @ List.init body_len (fun _ -> fop ())) in
  (* Every eighth program starts past its end: a prefetch abort before
     anything retires, unless fuel or budget end the burst first. *)
  let start_pc = if seed mod 8 = 7 then len else 0 in
  let regs = Regs.set_user_visible Regs.zeroed (List.init 15 (fun _ -> w (Seedsplit.next st))) in
  let flag () = pick 2 = 0 in
  let cpsr =
    Psr.make ~n:(flag ()) ~z:(flag ()) ~c:(flag ()) ~v:(flag ()) ~irq_masked:false
      ~fiq_masked:false Mode.User
  in
  let s = machine_with [] in
  let fill m frame = Memory.store_range m frame (List.init 4 (fun _ -> w (Seedsplit.next st))) in
  let mem = fill (fill s.State.mem data_frame) ro_frame in
  let s = { s with State.regs; cpsr; mem; cycles = 1000; upc = w 0x77; far = w 0x55 } in
  (prog, start_pc, s)

let memory_digest m =
  let b = Buffer.create 256 in
  Memory.fold (fun a v () -> Printf.bprintf b "%x=%x;" a (Word.to_int v)) m ();
  Digest.to_hex (Digest.string (Buffer.contents b))

let corpus_row id ~budget ~fuel (prog, start_pc, s) =
  let steps = ref (-1) in
  let s, ev =
    Exec.run_bytecode
      ~probe:(fun ~steps:n -> steps := n)
      { s with State.irq_budget = budget }
      prog ~start_pc ~fuel
  in
  let hex v = Printf.sprintf "%08x" (Word.to_int v) in
  let opt = function None -> "-" | Some b -> string_of_int b in
  Printf.sprintf "p%d b%s f%d: %s upc=%s far=%s cycles=%d budget=%s steps=%d cpsr=%s mem=%s regs=%s"
    id (opt budget) fuel (Exec.show_event ev) (hex s.State.upc) (hex s.State.far)
    s.State.cycles (opt s.State.irq_budget) !steps
    (hex (Psr.encode s.State.cpsr))
    (memory_digest s.State.mem)
    (String.concat "," (List.map hex (Regs.user_visible s.State.regs)))

let corpus_rows () =
  List.concat_map
    (fun id ->
      let p = corpus_program id in
      List.concat_map
        (fun budget -> List.map (fun fuel -> corpus_row id ~budget ~fuel p) corpus_fuels)
        corpus_budgets)
    (List.init corpus_programs Fun.id)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let expected_rows () =
  List.filter (fun l -> l <> "" && l.[0] <> '#') (read_lines "exec_corpus.expected")

let test_golden_corpus () =
  let expected = expected_rows () in
  let actual = corpus_rows () in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2
    (fun e a -> if e <> a then Alcotest.failf "row differs:\n  expected %s\n  got      %s" e a)
    expected actual

(* The corpus is only as good as what it exercises: every instruction
   form, every condition, jumps out of the program, and every way a
   burst can end. *)
let test_corpus_coverage () =
  let progs = List.init corpus_programs (fun i -> let p, _, _ = corpus_program i in p) in
  let fops = List.concat_map Array.to_list progs in
  let insn_form = function
    | Insn.Mov _ -> 0 | Mvn _ -> 1 | Add _ -> 2 | Sub _ -> 3 | Rsb _ -> 4 | Mul _ -> 5
    | And_ _ -> 6 | Orr _ -> 7 | Eor _ -> 8 | Bic _ -> 9 | Lsl _ -> 10 | Lsr _ -> 11
    | Asr _ -> 12 | Ror _ -> 13 | Cmp _ -> 14 | Cmn _ -> 15 | Tst _ -> 16 | Ldr _ -> 17
    | Str _ -> 18 | Svc _ -> 19 | Udf -> 20 | Nop -> 21
  in
  let forms = List.filter_map (function Insn.FI i -> Some (insn_form i) | _ -> None) fops in
  Alcotest.(check (list int)) "every instruction form" (List.init 22 Fun.id)
    (List.sort_uniq compare forms);
  List.iter
    (fun c ->
      Alcotest.(check bool) (Insn.show_cond c) true
        (List.exists (function Insn.FJcc (c', _) -> c' = c | _ -> false) fops))
    all_conds;
  Alcotest.(check bool) "unconditional jumps" true
    (List.exists (function Insn.FJmp _ -> true | _ -> false) fops);
  Alcotest.(check bool) "out-of-range targets" true
    (List.exists
       (fun p ->
         Array.exists
           (function Insn.FJmp t | Insn.FJcc (_, t) -> t < 0 || t >= Array.length p | _ -> false)
           p)
       progs);
  (* A row reads "p<id> b<budget> f<fuel>: <event> upc=...". *)
  let events =
    List.map
      (fun row ->
        match String.split_on_char ' ' row with
        | _ :: _ :: _ :: ev :: arg :: _ when ev.[0] = '(' -> ev ^ " " ^ arg
        | _ :: _ :: _ :: ev :: _ -> ev
        | _ -> row)
      (expected_rows ())
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool) ev true (List.exists (String.starts_with ~prefix:ev) events))
    [ "(Ev_svc"; "Ev_irq"; "(Ev_fault Alignment)"; "(Ev_fault Translation)";
      "(Ev_fault Permission)"; "(Ev_fault Prefetch)"; "(Ev_fault Undef_insn)" ]

let suite =
  [
    Alcotest.test_case "alu semantics" `Quick test_alu;
    Alcotest.test_case "shift semantics" `Quick test_shifts;
    Alcotest.test_case "cmn sets flags from addition" `Quick test_cmn_flags;
    Alcotest.test_case "cmp flags drive loops" `Quick test_cmp_flags_loop;
    Alcotest.test_case "if/else both arms" `Quick test_if_else;
    Alcotest.test_case "memory via page table" `Quick test_memory_access;
    Alcotest.test_case "fault: unmapped" `Quick test_fault_unmapped;
    Alcotest.test_case "fault: write to read-only" `Quick test_fault_write_ro;
    Alcotest.test_case "fault: unaligned" `Quick test_fault_unaligned;
    Alcotest.test_case "fault: undefined instruction" `Quick test_fault_undef;
    Alcotest.test_case "fault: fall off end" `Quick test_fault_falloff;
    Alcotest.test_case "read-only pages readable" `Quick test_reads_allowed_on_ro;
    Alcotest.test_case "svc delivers args" `Quick test_svc_args;
    Alcotest.test_case "irq budget fires" `Quick test_irq_budget;
    Alcotest.test_case "fuel exhaustion behaves as irq" `Quick test_fuel_exhaustion_is_irq;
    Alcotest.test_case "resume mid-program" `Quick test_resume_mid_program;
    Alcotest.test_case "bad code image" `Quick test_bad_image;
    Alcotest.test_case "native dispatch" `Quick test_native_dispatch;
    Alcotest.test_case "cycles charged" `Quick test_cycles_charged;
    Testlib.qcheck prop_pure_programs_exit;
    Alcotest.test_case "hook: asked at every boundary" `Quick test_hook_boundaries;
    Alcotest.test_case "hook: Insn k irq resumes at k" `Quick test_hook_insn_irq;
    Alcotest.test_case "hook: Insn k write seen at k" `Quick test_hook_mem_write;
    Alcotest.test_case "hook: secure write dropped" `Quick test_hook_secure_write_dropped;
    Alcotest.test_case "hook: idle injector never handed a state" `Quick test_hook_idle;
    Alcotest.test_case "golden corpus" `Quick test_golden_corpus;
    Alcotest.test_case "golden corpus coverage" `Quick test_corpus_coverage;
    Alcotest.test_case "hook: kept states survive the burst" `Quick test_hook_keeps_states;
  ]
