(* The security harness itself: the observational-equivalence relations,
   the Theorem 6.1 bisimulation over many seeds, the attack and
   declassification libraries — and mutation tests showing the harness
   actually detects leaks and tampering. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Obs = Komodo_sec.Obs
module Nonint = Komodo_sec.Nonint
module Attacks = Komodo_sec.Attacks
module Declass = Komodo_sec.Declass

(* -- Relations ------------------------------------------------------------ *)

let free_entry = Pagedb.Free
let data_of n = Pagedb.DataPage { addrspace = n }
let spare_of n = Pagedb.SparePage { addrspace = n }
let thread_of ?(entered = false) n =
  Pagedb.Thread { addrspace = n; entry_point = Word.zero; entered; ctx = None; dispatcher = None; fault_ctx = None }

let test_weak_equal_types () =
  Alcotest.(check bool) "data ~ data (any owner/contents)" true
    (Obs.entry_weak_equal (data_of 1) (data_of 9));
  Alcotest.(check bool) "spare ~ spare" true
    (Obs.entry_weak_equal (spare_of 1) (spare_of 2));
  Alcotest.(check bool) "data !~ spare" false
    (Obs.entry_weak_equal (data_of 1) (spare_of 1));
  Alcotest.(check bool) "free ~ free" true (Obs.entry_weak_equal free_entry free_entry)

let test_weak_equal_threads () =
  Alcotest.(check bool) "threads compare only entered-ness" true
    (Obs.entry_weak_equal (thread_of 1) (thread_of 7));
  Alcotest.(check bool) "entered distinguishes" false
    (Obs.entry_weak_equal (thread_of ~entered:true 1) (thread_of 1))

let test_weak_equal_metadata_exact () =
  (* Page-table and address-space entries must be *fully* equal. *)
  let a1 =
    Pagedb.Addrspace
      { l1pt = 1; refcount = 2; state = Pagedb.Init; measurement = Komodo_core.Measure.initial }
  in
  let a2 =
    Pagedb.Addrspace
      { l1pt = 1; refcount = 3; state = Pagedb.Init; measurement = Komodo_core.Measure.initial }
  in
  Alcotest.(check bool) "refcount difference visible" false (Obs.entry_weak_equal a1 a2);
  Alcotest.(check bool) "identical accepted" true (Obs.entry_weak_equal a1 a1)

let test_adv_equiv_reflexive () =
  let os = Os.boot ~seed:3 ~npages:16 () in
  Alcotest.(check bool) "x ~ x" true (Obs.adv_equiv os.Os.mon os.Os.mon)

let test_adv_equiv_detects_insecure_memory () =
  let os = Os.boot ~seed:3 ~npages:16 () in
  let os' = Os.write_word os (Word.of_int 0x0100_0000) Word.one in
  Alcotest.(check bool) "insecure memory visible" false (Obs.adv_equiv os.Os.mon os'.Os.mon);
  Alcotest.(check (option string)) "clause named" (Some "insecure memory")
    (Obs.adv_equiv_explain os.Os.mon os'.Os.mon)

let test_adv_equiv_detects_registers () =
  let os = Os.boot ~seed:3 ~npages:16 () in
  let mon' =
    { os.Os.mon with Monitor.mach = State.write_reg os.Os.mon.Monitor.mach (Regs.R 7) Word.one }
  in
  Alcotest.(check bool) "registers visible" false (Obs.adv_equiv os.Os.mon mon')

let test_adv_equiv_blind_to_secrets () =
  (* A non-observer enclave's data-page contents are exactly what the
     relation must NOT see. *)
  let w = Nonint.make_world ~seed:5 ~perturb:`Victim_secret in
  Alcotest.(check bool) "secret-divergent states related" true
    (Obs.adv_equiv ~enc:w.Nonint.adv.Loader.addrspace w.Nonint.os_a.Os.mon
       w.Nonint.os_b.Os.mon)

let test_enc_equiv_sees_own_pages () =
  (* But the *victim* observer does distinguish its own contents. *)
  let w = Nonint.make_world ~seed:5 ~perturb:`Victim_secret in
  Alcotest.(check bool) "victim sees its own secret" false
    (Obs.enc_equiv ~enc:w.Nonint.victim.Loader.addrspace w.Nonint.os_a.Os.mon
       w.Nonint.os_b.Os.mon)

(* -- Theorem 6.1 bisimulation ---------------------------------------------- *)

let test_confidentiality_seeds () =
  List.iter
    (fun seed ->
      match Nonint.run_confidentiality ~seed ~nops:50 with
      | None -> ()
      | Some f -> Alcotest.failf "seed %d: %a" seed Nonint.pp_failure f)
    [ 11; 22; 33; 44; 55; 66 ]

let test_integrity_seeds () =
  List.iter
    (fun seed ->
      match Nonint.run_integrity ~seed ~nops:50 with
      | None -> ()
      | Some f -> Alcotest.failf "seed %d: %a" seed Nonint.pp_failure f)
    [ 11; 22; 33; 44; 55; 66 ]

let prop_confidentiality =
  QCheck.Test.make ~name:"confidentiality bisimulation (random seeds)" ~count:12
    (QCheck.int_bound 100_000)
    (fun seed -> Nonint.run_confidentiality ~seed ~nops:30 = None)

let prop_integrity =
  QCheck.Test.make ~name:"integrity bisimulation (random seeds)" ~count:12
    (QCheck.int_bound 100_000)
    (fun seed -> Nonint.run_integrity ~seed ~nops:30 = None)

(* -- Mutation tests: the harness detects real leaks ------------------------- *)

let test_harness_detects_memory_leak () =
  (* Simulate a buggy monitor that copies one word of the victim's
     secret page into insecure memory: ≈adv must break. *)
  let w = Nonint.make_world ~seed:9 ~perturb:`Victim_secret in
  let leak (os : Os.t) victim_page =
    let secret =
      Memory.load os.Os.mon.Monitor.mach.State.mem (Monitor.page_pa os.Os.mon victim_page)
    in
    let mem = Memory.store os.Os.mon.Monitor.mach.State.mem (Word.of_int 0x0600_0000) secret in
    { os with Os.mon = { os.Os.mon with Monitor.mach = { os.Os.mon.Monitor.mach with State.mem } } }
  in
  let victim_data = List.nth w.Nonint.victim.Loader.data_pages 1 in
  let os_a = leak w.Nonint.os_a victim_data in
  let os_b = leak w.Nonint.os_b victim_data in
  Alcotest.(check bool) "leak detected by adv_equiv" false
    (Obs.adv_equiv ~enc:w.Nonint.adv.Loader.addrspace os_a.Os.mon os_b.Os.mon)

let test_harness_detects_register_leak () =
  (* A monitor that forgets to clear r2 after running the victim. *)
  let w = Nonint.make_world ~seed:9 ~perturb:`Victim_secret in
  let leak (os : Os.t) victim_page =
    let secret =
      Memory.load os.Os.mon.Monitor.mach.State.mem (Monitor.page_pa os.Os.mon victim_page)
    in
    { os with Os.mon = { os.Os.mon with Monitor.mach = State.write_reg os.Os.mon.Monitor.mach (Regs.R 2) secret } }
  in
  let victim_data = List.nth w.Nonint.victim.Loader.data_pages 1 in
  let os_a = leak w.Nonint.os_a victim_data in
  let os_b = leak w.Nonint.os_b victim_data in
  Alcotest.(check bool) "register leak detected" false
    (Obs.adv_equiv ~enc:w.Nonint.adv.Loader.addrspace os_a.Os.mon os_b.Os.mon)

let test_harness_detects_integrity_tamper () =
  (* An OS that could corrupt a victim data page would break the
     integrity check. *)
  let w = Nonint.make_world ~seed:9 ~perturb:`Adversary_state in
  let victim_data = List.nth w.Nonint.victim.Loader.data_pages 1 in
  let os_b = { w.Nonint.os_b with Os.mon = Nonint.inject_secret w.Nonint.os_b.Os.mon victim_data (String.make 4096 'T') } in
  let w = { w with Nonint.os_b = os_b } in
  match
    Nonint.run_pair w ~ops:[ Nonint.Op_smc { call = Komodo_core.Abi.smc_get_phys_pages; args = [] } ]
      ~check:Nonint.integrity_check
  with
  | Some f ->
      Alcotest.(check bool) "tamper reported on victim page" true
        (String.length f.Nonint.reason > 0)
  | None -> Alcotest.fail "integrity harness missed the tampering"

(* -- Attack and declassification libraries ---------------------------------- *)

let attack_cases =
  List.map
    (fun (name, attack) ->
      Alcotest.test_case ("attack: " ^ name) `Quick (fun () ->
          match attack () with
          | Attacks.Defended -> ()
          | Attacks.Leaked msg -> Alcotest.fail msg))
    Attacks.all_komodo

let declass_cases =
  List.map
    (fun (name, check) ->
      Alcotest.test_case ("declass: " ^ name) `Quick (fun () ->
          match check () with
          | Declass.Ok_channel -> ()
          | Declass.Broken msg -> Alcotest.fail msg))
    Declass.all

let suite =
  [
    Alcotest.test_case "weak equality on types" `Quick test_weak_equal_types;
    Alcotest.test_case "weak equality on threads" `Quick test_weak_equal_threads;
    Alcotest.test_case "weak equality exact on metadata" `Quick test_weak_equal_metadata_exact;
    Alcotest.test_case "adv_equiv reflexive" `Quick test_adv_equiv_reflexive;
    Alcotest.test_case "adv_equiv sees insecure memory" `Quick test_adv_equiv_detects_insecure_memory;
    Alcotest.test_case "adv_equiv sees registers" `Quick test_adv_equiv_detects_registers;
    Alcotest.test_case "adv_equiv blind to enclave secrets" `Quick test_adv_equiv_blind_to_secrets;
    Alcotest.test_case "enc_equiv sees own pages" `Quick test_enc_equiv_sees_own_pages;
    Alcotest.test_case "confidentiality (fixed seeds)" `Slow test_confidentiality_seeds;
    Alcotest.test_case "integrity (fixed seeds)" `Slow test_integrity_seeds;
    Alcotest.test_case "mutation: memory leak detected" `Quick test_harness_detects_memory_leak;
    Alcotest.test_case "mutation: register leak detected" `Quick test_harness_detects_register_leak;
    Alcotest.test_case "mutation: integrity tamper detected" `Quick test_harness_detects_integrity_tamper;
    Testlib.qcheck prop_confidentiality;
    Testlib.qcheck prop_integrity;
  ]
  @ attack_cases @ declass_cases
