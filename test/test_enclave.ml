(* Enclave execution: Enter/Resume semantics, interrupts and context
   save/restore, faults, register hygiene, multiple enclaves and
   threads — the Figure 3 state machine end to end. *)

open Testlib
module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Insn = Komodo_machine.Insn
module Errors = Komodo_core.Errors
module Pagedb = Komodo_core.Pagedb
module Monitor = Komodo_core.Monitor
module Progs = Komodo_user.Progs
open Komodo_user.Uprog

let test_enter_args_delivered () =
  let os = boot () in
  let os, h = load_prog os Progs.add_args in
  let _, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int 100, Word.of_int 20, Word.of_int 3)
  in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "args in r0-r2" 123 (Word.to_int v)

let test_enter_nonargs_zeroed () =
  (* The enclave reads r3..r12 and user SP/LR; all must be zero on a
     fresh entry even though the OS had values there. *)
  let prog =
    [ Insn.I (Insn.Mov (r6, Insn.Reg r3)) ]
    @ List.map (fun i -> Insn.I (Insn.Orr (r6, r6, Insn.Reg (Komodo_machine.Regs.R i)))) [ 4; 5; 7; 8; 9; 10; 11; 12 ]
    @ [ Insn.I (Insn.Orr (r6, r6, Insn.Reg sp)); Insn.I (Insn.Orr (r6, r6, Insn.Reg lr)) ]
    @ exit_with r6
  in
  let os = boot () in
  (* Pollute OS registers first. *)
  let mach =
    List.fold_left
      (fun m i -> State.write_reg m (Regs.R i) (Word.of_int 0xFFFF))
      os.Os.mon.Monitor.mach
      (List.init 8 (fun k -> k + 5))
  in
  let os = { os with Os.mon = { os.Os.mon with Monitor.mach = mach } } in
  let os, h = load_prog os prog in
  let _, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "no residue reaches the enclave" 0 (Word.to_int v)

let test_loop_program () =
  let os = boot () in
  let os, h = load_prog os Progs.sum_to_n in
  let _, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int 100, Word.zero, Word.zero)
  in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "sum 1..100" 5050 (Word.to_int v)

let test_interrupt_suspends () =
  let os = boot () in
  let os, h = load_prog os Progs.spin_forever in
  let th = List.hd h.Loader.threads in
  let os, e, _ = enter0 (set_irq_budget 100 os) ~thread:th in
  check_err "interrupted" Errors.Interrupted e;
  check_wf "suspended state" os;
  match Pagedb.get os.Os.mon.Monitor.pagedb th with
  | Pagedb.Thread t ->
      Alcotest.(check bool) "entered" true t.Pagedb.entered;
      Alcotest.(check bool) "context saved" true (t.Pagedb.ctx <> None)
  | _ -> Alcotest.fail "thread entry lost"

let test_resume_continues () =
  (* Interrupt a summation loop mid-way; resuming must complete it with
     the correct total — context save/restore is exact. *)
  let os = boot () in
  let os, h = load_prog os Progs.sum_to_n in
  let th = List.hd h.Loader.threads in
  let os, e, _ =
    Os.enter (set_irq_budget 123 os) ~thread:th
      ~args:(Word.of_int 100, Word.zero, Word.zero)
  in
  check_err "interrupted mid-loop" Errors.Interrupted e;
  let os, e, v = Os.resume (clear_irq_budget os) ~thread:th in
  check_err "resumed to completion" Errors.Success e;
  Alcotest.(check int) "exact sum" 5050 (Word.to_int v);
  match Pagedb.get os.Os.mon.Monitor.pagedb th with
  | Pagedb.Thread t ->
      Alcotest.(check bool) "no longer entered" false t.Pagedb.entered;
      Alcotest.(check bool) "context cleared" true (t.Pagedb.ctx = None)
  | _ -> Alcotest.fail "thread entry lost"

let test_repeated_interrupts () =
  (* Many tiny time slices still produce the exact result. *)
  let os = boot () in
  let os, h = load_prog os Progs.sum_to_n in
  let th = List.hd h.Loader.threads in
  let os, e, v =
    Os.run_thread ~budget:37 os ~thread:th
      ~args:(Word.of_int 200, Word.zero, Word.zero)
  in
  check_err "eventually exits" Errors.Success e;
  Alcotest.(check int) "sum 1..200 across many slices" 20100 (Word.to_int v);
  ignore os

let test_reenter_after_exit () =
  let os = boot () in
  let os, h = load_prog os Progs.add_args in
  let th = List.hd h.Loader.threads in
  let os, e, v1 =
    Os.enter os ~thread:th ~args:(Word.of_int 1, Word.of_int 1, Word.zero)
  in
  check_err "first" Errors.Success e;
  let _, e, v2 =
    Os.enter os ~thread:th ~args:(Word.of_int 2, Word.of_int 2, Word.zero)
  in
  check_err "second" Errors.Success e;
  Alcotest.(check int) "first run" 2 (Word.to_int v1);
  Alcotest.(check int) "second run" 4 (Word.to_int v2)

let test_enter_validation () =
  let os = boot () in
  let _, e, _ = enter0 os ~thread:5 in
  check_err "free page is not a thread" Errors.Invalid_thread e;
  let _, e, _ = enter0 os ~thread:99 in
  check_err "out of range" Errors.Invalid_thread e;
  let os = build_manual ~finalise:false os in
  let _, e, _ = enter0 os ~thread:4 in
  check_err "unfinalised enclave" Errors.Not_final e;
  let _, e, _ = enter0 os ~thread:0 in
  check_err "addrspace page is not a thread" Errors.Invalid_thread e

let test_fault_reports_only_type () =
  let os = boot () in
  let os, h = load_prog os Progs.fault_unmapped in
  let os, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "fault" Errors.Fault e;
  Alcotest.(check int) "no details" 0 (Word.to_int v);
  (* The thread is not suspended; it can be started again. *)
  (match Pagedb.get os.Os.mon.Monitor.pagedb (List.hd h.Loader.threads) with
  | Pagedb.Thread t -> Alcotest.(check bool) "not entered" false t.Pagedb.entered
  | _ -> Alcotest.fail "thread lost");
  let _, e, _ = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "faults again deterministically" Errors.Fault e

let test_undef_fault () =
  let os = boot () in
  let os, h = load_prog os Progs.fault_undefined in
  let _, e, _ = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "undefined instruction -> Fault" Errors.Fault e

let test_multiple_threads () =
  (* One enclave, two threads with different entry points, suspended and
     resumed independently. *)
  let os = boot () in
  let code = Uprog.to_page_images (Uprog.code_words Progs.spin_forever) in
  let img = Image.empty ~name:"twothreads" in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img = Image.add_thread img ~entry:Word.zero in
  let img = Image.add_thread img ~entry:Word.zero in
  let os, h =
    match Loader.load os img with
    | Ok r -> r
    | Error e -> Alcotest.failf "load: %a" Loader.pp_error e
  in
  let t1 = List.nth h.Loader.threads 0 and t2 = List.nth h.Loader.threads 1 in
  let os, e, _ = enter0 (set_irq_budget 50 os) ~thread:t1 in
  check_err "t1 suspended" Errors.Interrupted e;
  let os, e, _ = enter0 (set_irq_budget 50 os) ~thread:t2 in
  check_err "t2 suspended while t1 suspended" Errors.Interrupted e;
  check_wf "both suspended" os;
  let _, e, _ = enter0 os ~thread:t1 in
  check_err "t1 re-enter refused" Errors.Already_entered e;
  let os, e, _ = Os.resume (set_irq_budget 50 os) ~thread:t2 in
  check_err "t2 resumes independently" Errors.Interrupted e;
  ignore os

let test_two_enclaves_isolated () =
  (* Two enclaves with private data pages: each stores to the same VA
     and reads back its own value — same virtual address, different
     physical pages, no cross-talk. *)
  let os = boot () in
  let mk os name =
    let code = Uprog.to_page_images (Uprog.code_words Progs.store_load) in
    let img = Image.empty ~name in
    let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
    let img =
      Image.add_secure_page img
        ~mapping:(Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false)
        ~contents:(String.make 4096 '\000')
    in
    let img = Image.add_thread img ~entry:Word.zero in
    match Loader.load os img with
    | Ok r -> r
    | Error e -> Alcotest.failf "load: %a" Loader.pp_error e
  in
  let os, ha = mk os "A" in
  let os, hb = mk os "B" in
  let os, e, va =
    Os.enter os ~thread:(List.hd ha.Loader.threads)
      ~args:(Word.of_int 0x1000, Word.of_int 0xAAAA, Word.zero)
  in
  check_err "A runs" Errors.Success e;
  let os, e, vb =
    Os.enter os ~thread:(List.hd hb.Loader.threads)
      ~args:(Word.of_int 0x1000, Word.of_int 0xBBBB, Word.zero)
  in
  check_err "B runs" Errors.Success e;
  let os, e, va2 =
    Os.enter os ~thread:(List.hd ha.Loader.threads)
      ~args:(Word.of_int 0x1000, Word.of_int 0xAAAA, Word.zero)
  in
  check_err "A runs again" Errors.Success e;
  Alcotest.(check int) "A sees its own store" 0xAAAA (Word.to_int va);
  Alcotest.(check int) "B sees its own store" 0xBBBB (Word.to_int vb);
  Alcotest.(check int) "A unaffected by B" 0xAAAA (Word.to_int va2);
  check_wf "two enclaves" os

let test_shared_page_communication () =
  (* The only legitimate channel: an insecure page mapped into the
     enclave. The enclave publishes a value; the OS reads it. *)
  let os = boot () in
  let os, h = load_prog ~shared:true os Progs.publish_to_shared in
  let os, e, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int 0x2000, Word.of_int 0x5EC2E7, Word.zero)
  in
  check_err "publish" Errors.Success e;
  Alcotest.(check int) "OS reads the published word" 0x5EC2E7
    (Word.to_int (Os.read_word os Os.shared_base))

let test_enclave_reads_os_updates () =
  (* The OS writes into the shared page between runs; the enclave
     checksums it — untrusted input flows in through shared memory. *)
  let os = boot () in
  let os, h = load_prog ~shared:true os Progs.checksum in
  let th = List.hd h.Loader.threads in
  let os = Os.write_bytes os Os.shared_base "\x00\x00\x00\x01\x00\x00\x00\x02" in
  let os, e, v =
    Os.enter os ~thread:th ~args:(Word.of_int 0x2000, Word.of_int 2, Word.zero)
  in
  check_err "first checksum" Errors.Success e;
  Alcotest.(check int) "1+2" 3 (Word.to_int v);
  let os = Os.write_bytes os Os.shared_base "\x00\x00\x00\x0A\x00\x00\x00\x14" in
  let _, e, v =
    Os.enter os ~thread:th ~args:(Word.of_int 0x2000, Word.of_int 2, Word.zero)
  in
  check_err "second checksum" Errors.Success e;
  Alcotest.(check int) "10+20" 30 (Word.to_int v)

let test_cycles_monotone () =
  let os = boot () in
  let os, h = load_prog os Progs.add_args in
  let c0 = Os.cycles os in
  let os, _, _ = enter0 os ~thread:(List.hd h.Loader.threads) in
  Alcotest.(check bool) "cycles advanced" true (Os.cycles os > c0)

(* [run_thread] ends a thread that never exits: without a budget at the
   fuel watchdog's one interrupt, with one once the crossings' budgets
   add up to the watchdog's fuel. A zero budget could never run. *)
let test_run_thread_ends_spinners () =
  let module Event = Komodo_telemetry.Event in
  let spinner () =
    let sink, collected = Komodo_telemetry.Sink.collect () in
    let os = Os.boot ~seed:0x7E57 ~npages:32 ~sink () in
    let os, h = load_prog os Progs.spin_forever in
    (os, List.hd h.Loader.threads, collected)
  in
  let crossings budget =
    let os, th, collected = spinner () in
    let _, e, _ = Os.run_thread ?budget os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
    check_err "interrupted" Errors.Interrupted e;
    List.length
      (List.filter
         (fun s ->
           match s.Event.ev with
           | Event.Smc_exit { name = "Enter" | "Resume"; _ } -> true
           | _ -> false)
         (collected ()))
  in
  let fuel = Komodo_core.Uexec.default_fuel in
  Alcotest.(check int) "no budget: the watchdog's one crossing" 1 (crossings None);
  Alcotest.(check int) "budgets that add up to the fuel" 40 (crossings (Some (fuel / 40)));
  Alcotest.(check int) "the last crossing may overshoot" 3 (crossings (Some ((fuel / 3) + 1)));
  let os, thread, _ = spinner () in
  let args = (Word.zero, Word.zero, Word.zero) in
  Alcotest.check_raises "zero budget" (Invalid_argument "Os.run_thread: budget must be positive")
    (fun () -> ignore (Os.run_thread ~budget:0 os ~thread ~args))

let suite =
  [
    Alcotest.test_case "args delivered in r0-r2" `Quick test_enter_args_delivered;
    Alcotest.test_case "non-arg registers zeroed" `Quick test_enter_nonargs_zeroed;
    Alcotest.test_case "loop program" `Quick test_loop_program;
    Alcotest.test_case "interrupt suspends" `Quick test_interrupt_suspends;
    Alcotest.test_case "resume continues exactly" `Quick test_resume_continues;
    Alcotest.test_case "repeated interrupts" `Quick test_repeated_interrupts;
    Alcotest.test_case "re-enter after exit" `Quick test_reenter_after_exit;
    Alcotest.test_case "enter validation" `Quick test_enter_validation;
    Alcotest.test_case "fault releases only the type" `Quick test_fault_reports_only_type;
    Alcotest.test_case "undefined instruction" `Quick test_undef_fault;
    Alcotest.test_case "multiple threads" `Quick test_multiple_threads;
    Alcotest.test_case "two enclaves isolated" `Quick test_two_enclaves_isolated;
    Alcotest.test_case "shared-page publication" `Quick test_shared_page_communication;
    Alcotest.test_case "OS updates visible via shared page" `Quick test_enclave_reads_os_updates;
    Alcotest.test_case "cycles monotone" `Quick test_cycles_monotone;
    Alcotest.test_case "run_thread ends a spinning thread" `Quick test_run_thread_ends_spinners;
  ]
