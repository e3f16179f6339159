(* Cross-module integration: the loader against the monitor, enclave
   teardown and page reuse, measurement prediction, and the notary
   application end to end. *)

open Testlib
module Word = Komodo_machine.Word
module Errors = Komodo_core.Errors
module Pagedb = Komodo_core.Pagedb
module Monitor = Komodo_core.Monitor
module Alloc = Komodo_os.Alloc
module Notary = Komodo_user.Notary
module Sha256 = Komodo_crypto.Sha256
module Rsa = Komodo_crypto.Rsa
module Bignum = Komodo_crypto.Bignum

let test_loader_produces_wf_enclave () =
  let os = boot () in
  let os, h = load_prog ~spares:2 ~shared:true os Komodo_user.Progs.add_args in
  check_wf "loaded enclave" os;
  Alcotest.(check int) "spares granted" 2 (List.length h.Loader.spares);
  match Pagedb.get os.Os.mon.Monitor.pagedb h.Loader.addrspace with
  | Pagedb.Addrspace a ->
      Alcotest.(check bool) "finalised" true
        (Pagedb.equal_addrspace_state a.Pagedb.state Pagedb.Final)
  | _ -> Alcotest.fail "addrspace missing"

let test_loader_measurement_prediction () =
  (* The OS-side expected_measurement must equal what the monitor
     computed — this is what lets a verifier trust a loaded enclave. *)
  let os = boot () in
  let os, h = load_prog os Komodo_user.Progs.sum_to_n in
  match Pagedb.get os.Os.mon.Monitor.pagedb h.Loader.addrspace with
  | Pagedb.Addrspace a -> (
      match Komodo_core.Measure.digest a.Pagedb.measurement with
      | Some d ->
          Alcotest.(check string) "prediction matches monitor"
            (Sha256.to_hex h.Loader.measurement) (Sha256.to_hex d)
      | None -> Alcotest.fail "no digest")
  | _ -> Alcotest.fail "addrspace missing"

let test_unload_returns_all_pages () =
  let os = boot () in
  let free0 = Alloc.available os.Os.alloc in
  let os, h = load_prog ~spares:1 ~shared:true os Komodo_user.Progs.add_args in
  Alcotest.(check bool) "pages consumed" true (Alloc.available os.Os.alloc < free0);
  let os =
    match Loader.unload os h with
    | Ok os -> os
    | Error e -> Alcotest.failf "unload: %a" Loader.pp_error e
  in
  Alcotest.(check int) "all pages back" free0 (Alloc.available os.Os.alloc);
  check_wf "clean state" os;
  Alcotest.(check int) "PageDB empty" 32 (Pagedb.free_count os.Os.mon.Monitor.pagedb)

let test_page_reuse_after_teardown () =
  (* Load, tear down, load a different enclave over the same pages, run
     it — no residue interferes. *)
  let os = boot () in
  let os, h1 = load_prog os Komodo_user.Progs.add_args in
  let os, e, v =
    Os.enter os ~thread:(List.hd h1.Loader.threads)
      ~args:(Word.of_int 1, Word.of_int 2, Word.of_int 3)
  in
  check_err "first enclave" Errors.Success e;
  Alcotest.(check int) "first result" 6 (Word.to_int v);
  let os =
    match Loader.unload os h1 with
    | Ok os -> os
    | Error e -> Alcotest.failf "unload: %a" Loader.pp_error e
  in
  let os, h2 = load_prog os Komodo_user.Progs.sum_to_n in
  let _, e, v =
    Os.enter os ~thread:(List.hd h2.Loader.threads)
      ~args:(Word.of_int 10, Word.zero, Word.zero)
  in
  check_err "second enclave on recycled pages" Errors.Success e;
  Alcotest.(check int) "second result" 55 (Word.to_int v)

let test_out_of_pages () =
  let os = Os.boot ~seed:1 ~npages:8 () in
  (* An 8-page system cannot host an image needing more. *)
  let big =
    let img = Image.empty ~name:"big" in
    let img =
      List.fold_left
        (fun img i ->
          Image.add_secure_page img
            ~mapping:(Mapping.make ~va:(Word.of_int ((i + 1) * 0x1000)) ~w:true ~x:false)
            ~contents:(String.make 4096 '\000'))
        img
        (List.init 10 (fun i -> i))
    in
    Image.add_thread img ~entry:(Word.of_int 0x1000)
  in
  match Loader.load os big with
  | Ok _ -> Alcotest.fail "load should have failed"
  | Error e -> check_err "out of pages" Errors.Pages_exhausted e.Loader.err

(* -- Notary end to end ---------------------------------------------------- *)

let notary_world () =
  let os = Os.boot ~seed:0x707A21 ~npages:64 () in
  let img = Image.notary ~input_pages:1 () in
  match Loader.load os img with
  | Ok (os, h) -> (os, h, List.hd h.Loader.threads)
  | Error e -> Alcotest.failf "notary load: %a" Loader.pp_error e

let test_notary_lifecycle () =
  let os, _h, th = notary_world () in
  let os, e, _ = enter0 os ~thread:th in
  check_err "init" Errors.Success e;
  let pub = { Rsa.n = Bignum.of_bytes_be (Os.read_bytes os Os.shared_base 128); e = Rsa.default_e } in
  (* Notarise a document and verify OS-side. *)
  let doc = String.make 64 'D' in
  let os = Os.write_bytes os Os.document_base doc in
  let os, e, stamp =
    Os.enter os ~thread:th
      ~args:(Word.of_int Notary.cmd_notarize, Notary.input_va, Word.of_int 64)
  in
  check_err "notarise" Errors.Success e;
  Alcotest.(check int) "counter starts at 1" 1 (Word.to_int stamp);
  let signature = Os.read_bytes os Os.shared_base 128 in
  let digest = Sha256.digest (doc ^ Word.to_bytes_be Word.zero) in
  Alcotest.(check bool) "signature verifies" true
    (Rsa.verify pub ~digest ~signature);
  (* Counter is monotonic: same document, different digest next time. *)
  let os, e, stamp2 =
    Os.enter os ~thread:th
      ~args:(Word.of_int Notary.cmd_notarize, Notary.input_va, Word.of_int 64)
  in
  check_err "notarise again" Errors.Success e;
  Alcotest.(check int) "counter 2" 2 (Word.to_int stamp2);
  let signature2 = Os.read_bytes os Os.shared_base 128 in
  Alcotest.(check bool) "signatures differ (counter bound)" false
    (String.equal signature signature2);
  check_wf "notary world" os

let test_notary_interrupted_init_resumes () =
  (* Interrupt the notary during its (long) initialisation; resuming
     completes it correctly. *)
  let os, _h, th = notary_world () in
  let os, e, v = Os.run_thread ~budget:100 os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
  check_err "init completes across interrupts" Errors.Success e;
  Alcotest.(check int) "init result" 0 (Word.to_int v);
  ignore os

let test_notary_rejects_bad_length () =
  let os, _h, th = notary_world () in
  let os, e, _ = enter0 os ~thread:th in
  check_err "init" Errors.Success e;
  let _, e, v =
    Os.enter os ~thread:th
      ~args:(Word.of_int Notary.cmd_notarize, Notary.input_va, Word.of_int 13)
  in
  check_err "call completes" Errors.Success e;
  Alcotest.(check int) "ragged length rejected" 1 (Word.to_int v)

let test_notary_unknown_command () =
  let os, _h, th = notary_world () in
  let os, e, _ = enter0 os ~thread:th in
  check_err "init" Errors.Success e;
  let _, e, v =
    Os.enter os ~thread:th ~args:(Word.of_int 9, Word.zero, Word.zero)
  in
  check_err "call completes" Errors.Success e;
  Alcotest.(check int) "unknown command code" 2 (Word.to_int v)

let test_monitor_cycles_accumulate_across_calls () =
  let os = boot () in
  let os, h = load_prog os Komodo_user.Progs.add_args in
  let cs =
    List.map
      (fun _ ->
        let c0 = Os.cycles os in
        let os', _, _ = enter0 os ~thread:(List.hd h.Loader.threads) in
        Os.cycles os' - c0)
      [ (); (); () ]
  in
  (* The same call from the same state costs the same — determinism of
     the cost model. *)
  match cs with
  | [ a; b; c ] ->
      Alcotest.(check int) "deterministic cost" a b;
      Alcotest.(check int) "deterministic cost 2" b c
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "loader produces wf enclave" `Quick test_loader_produces_wf_enclave;
    Alcotest.test_case "measurement prediction" `Quick test_loader_measurement_prediction;
    Alcotest.test_case "unload returns pages" `Quick test_unload_returns_all_pages;
    Alcotest.test_case "page reuse after teardown" `Quick test_page_reuse_after_teardown;
    Alcotest.test_case "out of pages" `Quick test_out_of_pages;
    Alcotest.test_case "notary lifecycle" `Slow test_notary_lifecycle;
    Alcotest.test_case "notary interrupted init" `Slow test_notary_interrupted_init_resumes;
    Alcotest.test_case "notary rejects bad length" `Slow test_notary_rejects_bad_length;
    Alcotest.test_case "notary unknown command" `Slow test_notary_unknown_command;
    Alcotest.test_case "deterministic call costs" `Quick test_monitor_cycles_accumulate_across_calls;
  ]
