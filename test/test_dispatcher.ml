(* The dispatcher interface (paper §9.2, implemented here): fault
   upcalls, ResumeFaulted, self-paging, double faults, interrupts during
   dispatch, and the security property that the OS observes nothing. *)

open Testlib
module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Errors = Komodo_core.Errors
module Pagedb = Komodo_core.Pagedb
module Monitor = Komodo_core.Monitor
module Progs = Komodo_user.Progs
module Abi = Komodo_core.Abi
open Komodo_user.Uprog

let dispatcher_va = Word.of_int 0x4000

let self_paging_image ?(dispatcher = Progs.self_paging_dispatcher) () =
  let main_pages = Uprog.to_page_images (Uprog.code_words Progs.self_paging_main) in
  let disp_pages = Uprog.to_page_images (Uprog.code_words dispatcher) in
  Image.empty ~name:"sp"
  |> fun img ->
  Image.add_blob img ~va:Word.zero ~w:false ~x:true main_pages |> fun img ->
  Image.add_blob img ~va:dispatcher_va ~w:false ~x:true disp_pages |> fun img ->
  Image.add_secure_page img
    ~mapping:(Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false)
    ~contents:(String.make 4096 '\000')
  |> fun img ->
  Image.add_thread img ~entry:Word.zero |> fun img -> Image.with_spares img 1

let load_sp ?dispatcher os =
  match Loader.load os (self_paging_image ?dispatcher ()) with
  | Ok r -> r
  | Error e -> Alcotest.failf "load: %a" Loader.pp_error e

let test_self_paging_happy_path () =
  let os = boot ~npages:48 () in
  let os, h = load_sp os in
  let spare = List.hd h.Loader.spares in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, dispatcher_va, Word.zero)
  in
  check_err "one successful Enter" Errors.Success e;
  Alcotest.(check int) "demand-mapped page served the store" 0xD15E (Word.to_int v);
  check_wf "after self-paging" os;
  (* The spare became a data page, driven entirely by the enclave. *)
  match Pagedb.get os.Os.mon.Monitor.pagedb spare with
  | Pagedb.DataPage _ -> ()
  | _ -> Alcotest.fail "spare not consumed as a data page"

let test_os_sees_nothing () =
  (* During the whole fault-dispatch-resume dance, the only OS-visible
     outcome is one Success return; insecure memory is untouched. *)
  let os = boot ~npages:48 () in
  let os = Os.write_bytes os (Word.of_int 0x0700_0000) "canary!!"  in
  let os, h = load_sp os in
  let spare = List.hd h.Loader.spares in
  let os, e, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, dispatcher_va, Word.zero)
  in
  check_err "fault invisible to OS" Errors.Success e;
  Alcotest.(check string) "insecure memory untouched" "canary!!"
    (Os.read_bytes os (Word.of_int 0x0700_0000) 8)

let test_double_fault_reported () =
  (* A dispatcher that fixes nothing: the retry faults forever; the
     watchdog reports a plain Fault to the OS, never hanging. *)
  let os = boot ~npages:48 () in
  let os, h = load_sp ~dispatcher:Progs.futile_dispatcher os in
  let spare = List.hd h.Loader.spares in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, dispatcher_va, Word.zero)
  in
  check_err "reported as Fault" Errors.Fault e;
  Alcotest.(check int) "no extra information" 0 (Word.to_int v);
  check_wf "consistent after fault storm" os

let test_faulting_dispatcher_reported () =
  (* A dispatcher that itself faults (touches unmapped memory): the
     double fault exits to the OS as a plain Fault. *)
  let bad_dispatcher =
    [ Insn.I (Insn.Mov (r4, imm 0x0900_0000)); Insn.I (Insn.Ldr (r5, r4, imm 0)) ]
  in
  let os = boot ~npages:48 () in
  let os, h = load_sp ~dispatcher:bad_dispatcher os in
  let spare = List.hd h.Loader.spares in
  let os, e, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, dispatcher_va, Word.zero)
  in
  check_err "double fault -> Fault" Errors.Fault e;
  check_wf "consistent" os

let test_set_dispatcher_validation () =
  (* SetDispatcher with an out-of-range entry is refused; the program
     exits with the error code. *)
  let prog =
    [
      Insn.I (Insn.Mvn (r1, imm 0)) (* 0xFFFFFFFF: beyond enclave space *);
      Insn.I (Insn.Mov (r0, imm Abi.svc_set_dispatcher));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r0
  in
  let os = boot () in
  let os, h = load_prog os prog in
  let _, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "program ran" Errors.Success e;
  Alcotest.(check int) "Invalid_arg"
    (Word.to_int (Errors.to_word Errors.Invalid_arg))
    (Word.to_int v)

let test_deregister_dispatcher () =
  (* Register, deregister (entry 0), fault: back to the base behaviour. *)
  let prog =
    [
      Insn.I (Insn.Mov (r1, imm 0x4000));
      Insn.I (Insn.Mov (r0, imm Abi.svc_set_dispatcher));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (r1, imm 0));
      Insn.I (Insn.Mov (r0, imm Abi.svc_set_dispatcher));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (r9, imm 0x0FF0_0000));
      Insn.I (Insn.Ldr (r9, r9, imm 0)) (* unmapped: faults *);
    ]
    @ exit_with r9
  in
  let os = boot () in
  let os, h = load_prog os prog in
  let _, e, _ = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "fault reaches OS after deregistration" Errors.Fault e

let test_resume_without_fault () =
  (* ResumeFaulted with no parked context: error delivered, enclave
     continues. *)
  let prog =
    [
      Insn.I (Insn.Mov (r0, imm Abi.svc_resume_faulted));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r0
  in
  let os = boot () in
  let os, h = load_prog os prog in
  let _, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "program survives" Errors.Success e;
  Alcotest.(check int) "Not_entered error"
    (Word.to_int (Errors.to_word Errors.Not_entered))
    (Word.to_int v)

let test_interrupt_during_dispatch () =
  (* Interrupt while the dispatcher runs: the OS sees Interrupted; a
     Resume continues the dispatcher and the whole dance completes. *)
  let os = boot ~npages:48 () in
  let os, h = load_sp os in
  let spare = List.hd h.Loader.spares in
  let th = List.hd h.Loader.threads in
  let os, e, v =
    Os.run_thread ~budget:15 os ~thread:th
      ~args:(Word.of_int spare, dispatcher_va, Word.zero)
  in
  check_err "completes across slices" Errors.Success e;
  Alcotest.(check int) "correct result despite interrupts" 0xD15E (Word.to_int v);
  check_wf "consistent" os

let test_dispatcher_fault_info_is_accurate () =
  (* The dispatcher receives the true fault class and address: have it
     publish them to a shared page for the (test-)OS to inspect. This
     is an enclave *choosing* to declassify its own fault — allowed. *)
  let publishing_dispatcher =
    [
      Insn.I (Insn.Mov (r11, imm 0x2000));
      Insn.I (Insn.Str (r0, r11, imm 0)) (* fault class *);
      Insn.I (Insn.Str (r1, r11, imm 4)) (* faulting address *);
      Insn.I (Insn.Mov (r1, imm 0x77));
    ]
    @ exit_with r1
  in
  let main =
    [
      Insn.I (Insn.Mov (r1, imm 0x4000));
      Insn.I (Insn.Mov (r0, imm Abi.svc_set_dispatcher));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (r9, imm 0x0600_4000));
      Insn.I (Insn.Ldr (r9, r9, imm 8)) (* faults at 0x06004008 *);
    ]
    @ exit_with r9
  in
  let img =
    Image.empty ~name:"pub"
    |> fun img ->
    Image.add_blob img ~va:Word.zero ~w:false ~x:true
      (Uprog.to_page_images (Uprog.code_words main))
    |> fun img ->
    Image.add_blob img ~va:dispatcher_va ~w:false ~x:true
      (Uprog.to_page_images (Uprog.code_words publishing_dispatcher))
    |> fun img ->
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
      ~target:Os.shared_base
    |> fun img -> Image.add_thread img ~entry:Word.zero
  in
  let os = boot ~npages:48 () in
  let os, h =
    match Loader.load os img with
    | Ok r -> r
    | Error e -> Alcotest.failf "load: %a" Loader.pp_error e
  in
  let os, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "dispatcher exited for the thread" Errors.Success e;
  Alcotest.(check int) "dispatcher's exit value" 0x77 (Word.to_int v);
  Alcotest.(check int) "fault class = translation" 1
    (Word.to_int (Os.read_word os Os.shared_base));
  Alcotest.(check int) "faulting address exact" 0x0600_4008
    (Word.to_int (Os.read_word os (Word.add Os.shared_base (Word.of_int 4))))

let suite =
  [
    Alcotest.test_case "self-paging happy path" `Quick test_self_paging_happy_path;
    Alcotest.test_case "OS observes nothing" `Quick test_os_sees_nothing;
    Alcotest.test_case "double fault reported" `Quick test_double_fault_reported;
    Alcotest.test_case "faulting dispatcher reported" `Quick test_faulting_dispatcher_reported;
    Alcotest.test_case "SetDispatcher validation" `Quick test_set_dispatcher_validation;
    Alcotest.test_case "deregistration" `Quick test_deregister_dispatcher;
    Alcotest.test_case "ResumeFaulted without fault" `Quick test_resume_without_fault;
    Alcotest.test_case "interrupt during dispatch" `Quick test_interrupt_during_dispatch;
    Alcotest.test_case "fault info accurate" `Quick test_dispatcher_fault_info_is_accurate;
  ]

(* -- Full self-paging with eviction ------------------------------------ *)

let selfpager_world () =
  let img =
    Image.empty ~name:"pager"
    |> fun img ->
    Image.add_blob img ~va:Word.zero ~w:false ~x:true
      (Uprog.to_page_images (Uprog.code_words Progs.selfpager_main))
    |> fun img ->
    Image.add_blob img ~va:(Word.of_int Progs.selfpager_disp_va) ~w:false ~x:true
      (Uprog.to_page_images (Uprog.code_words Progs.selfpager_dispatcher))
    |> fun img ->
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va:(Word.of_int Progs.selfpager_book) ~w:true ~x:false)
      ~contents:(String.make 4096 '\000')
    |> fun img ->
    List.fold_left
      (fun img i ->
        Image.add_insecure_mapping img
          ~mapping:
            (Mapping.make
               ~va:(Word.of_int (Progs.selfpager_swap + (i * 4096)))
               ~w:true ~x:false)
          ~target:(Word.add Os.shared_base (Word.of_int (i * 4096))))
      img
      (List.init 4 (fun i -> i))
    |> fun img ->
    Image.add_thread img ~entry:Word.zero |> fun img -> Image.with_spares img 1
  in
  let os = boot ~npages:48 () in
  match Loader.load os img with
  | Ok r -> r
  | Error e -> Alcotest.failf "pager load: %a" Loader.pp_error e

let test_selfpager_correctness () =
  let os, h = selfpager_world () in
  let spare = List.hd h.Loader.spares in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, Word.zero, Word.zero)
  in
  check_err "single successful Enter" Errors.Success e;
  Alcotest.(check int) "all four pages round-tripped" 0x286 (Word.to_int v);
  check_wf "after paging storm" os

let test_selfpager_swap_is_ciphertext () =
  let os, h = selfpager_world () in
  let spare = List.hd h.Loader.spares in
  let os, e, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, Word.zero, Word.zero)
  in
  check_err "ran" Errors.Success e;
  (* Slot 0 holds page 0's eviction image: word 0 must be the
     enciphered 0xA0, never the plaintext. *)
  let w0 = Word.to_int (Os.read_word os Os.shared_base) in
  Alcotest.(check int) "ciphertext in swap" (0xA0 lxor Progs.selfpager_key) w0;
  (* Every page gets evicted at some point in the access pattern (page
     3 during the read phase); all slots must hold ciphertext only. *)
  List.iter
    (fun i ->
      let w =
        Word.to_int (Os.read_word os (Word.add Os.shared_base (Word.of_int (i * 4096))))
      in
      Alcotest.(check int)
        (Printf.sprintf "slot %d ciphertext" i)
        ((0xA0 + i) lxor Progs.selfpager_key)
        w)
    [ 0; 1; 2; 3 ]

let test_selfpager_uses_one_frame () =
  (* Throughout the run the enclave owns exactly its static pages plus
     the one spare/data frame — 4 virtual pages never consume more. *)
  let os, h = selfpager_world () in
  let spare = List.hd h.Loader.spares in
  let before = Pagedb.free_count os.Os.mon.Monitor.pagedb in
  let os, e, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, Word.zero, Word.zero)
  in
  check_err "ran" Errors.Success e;
  Alcotest.(check int) "no extra frames consumed" before
    (Pagedb.free_count os.Os.mon.Monitor.pagedb)

let suite =
  suite
  @ [
      Alcotest.test_case "self-pager: 4 pages on 1 frame" `Quick test_selfpager_correctness;
      Alcotest.test_case "self-pager: swap holds ciphertext" `Quick test_selfpager_swap_is_ciphertext;
      Alcotest.test_case "self-pager: constant frame usage" `Quick test_selfpager_uses_one_frame;
    ]
