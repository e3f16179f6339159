(* Golden test of the monitor API's encoding: Table 1 written out
   literally, so renumbering or renaming a call or an error word in
   [Abi] (and hence in the monitor, the spec, enclave code and the
   lock footprints, which all read it) fails here. *)

module Abi = Komodo_core.Abi
module Errors = Komodo_core.Errors
module Word = Komodo_machine.Word

let smcs =
  [
    (Abi.smc_get_phys_pages, 1, "GetPhysPages");
    (Abi.smc_init_addrspace, 2, "InitAddrspace");
    (Abi.smc_init_thread, 3, "InitThread");
    (Abi.smc_init_l2ptable, 4, "InitL2PTable");
    (Abi.smc_alloc_spare, 5, "AllocSpare");
    (Abi.smc_map_secure, 6, "MapSecure");
    (Abi.smc_map_insecure, 7, "MapInsecure");
    (Abi.smc_finalise, 8, "Finalise");
    (Abi.smc_enter, 9, "Enter");
    (Abi.smc_resume, 10, "Resume");
    (Abi.smc_stop, 11, "Stop");
    (Abi.smc_remove, 12, "Remove");
  ]

let svcs =
  [
    (Abi.svc_exit, 0, "Exit");
    (Abi.svc_get_random, 1, "GetRandom");
    (Abi.svc_attest, 2, "Attest");
    (Abi.svc_verify, 3, "Verify");
    (Abi.svc_init_l2ptable, 4, "InitL2PTable");
    (Abi.svc_map_data, 5, "MapData");
    (Abi.svc_unmap_data, 6, "UnmapData");
    (Abi.svc_set_dispatcher, 7, "SetDispatcher");
    (Abi.svc_resume_faulted, 8, "ResumeFaulted");
  ]

let errors =
  [
    (Errors.Success, Abi.e_success, 0, "Success");
    (Errors.Invalid_pageno, Abi.e_invalid_pageno, 1, "Invalid_pageno");
    (Errors.Page_in_use, Abi.e_page_in_use, 2, "Page_in_use");
    (Errors.Invalid_addrspace, Abi.e_invalid_addrspace, 3, "Invalid_addrspace");
    (Errors.Already_final, Abi.e_already_final, 4, "Already_final");
    (Errors.Not_final, Abi.e_not_final, 5, "Not_final");
    (Errors.Invalid_mapping, Abi.e_invalid_mapping, 6, "Invalid_mapping");
    (Errors.Addr_in_use, Abi.e_addr_in_use, 7, "Addr_in_use");
    (Errors.Not_stopped, Abi.e_not_stopped, 8, "Not_stopped");
    (Errors.Interrupted, Abi.e_interrupted, 9, "Interrupted");
    (Errors.Fault, Abi.e_fault, 10, "Fault");
    (Errors.Already_entered, Abi.e_already_entered, 11, "Already_entered");
    (Errors.Not_entered, Abi.e_not_entered, 12, "Not_entered");
    (Errors.Invalid_thread, Abi.e_invalid_thread, 13, "Invalid_thread");
    (Errors.Pages_exhausted, Abi.e_pages_exhausted, 14, "Pages_exhausted");
    (Errors.In_use, Abi.e_in_use, 15, "In_use");
    (Errors.Invalid_arg, Abi.e_invalid_arg, 16, "Invalid_arg");
    (Errors.Entropy_exhausted, Abi.e_entropy_exhausted, 17, "Entropy_exhausted");
  ]

let check_calls kind name_of listed table =
  List.iter
    (fun (constant, n, name) ->
      Alcotest.(check int) (Printf.sprintf "%s %s number" kind name) n constant;
      Alcotest.(check string) (Printf.sprintf "%s %d name" kind n) name (name_of n))
    listed;
  Alcotest.(check (list int))
    (kind ^ " call list") (List.map (fun (_, n, _) -> n) listed) table

let test_calls () =
  check_calls "smc" Abi.smc_name smcs Abi.smcs;
  check_calls "svc" Abi.svc_name svcs Abi.svcs;
  Alcotest.(check int) "smc argument registers" 4 Abi.smc_nargs

let test_fallbacks () =
  List.iter
    (fun (got, want) -> Alcotest.(check string) want want got)
    [
      (Abi.smc_name 0, "Unknown(0)");
      (Abi.smc_name 13, "Unknown(13)");
      (Abi.smc_name 99, "Unknown(99)");
      (Abi.svc_name 9, "Unknown(9)");
      (Abi.svc_name (-1), "Unknown(-1)");
      (Abi.err_name 18, "Err(18)");
      (Abi.err_name (-1), "Err(-1)");
    ]

let test_errors () =
  let err = Alcotest.testable Errors.pp Errors.equal in
  List.iter
    (fun (e, constant, n, name) ->
      Alcotest.(check int) (name ^ " word") n constant;
      Alcotest.(check string) (Printf.sprintf "word %d name" n) name (Abi.err_name n);
      Alcotest.(check int) (name ^ " to_word") n (Word.to_int (Errors.to_word e));
      Alcotest.(check (option err)) (name ^ " round trip") (Some e)
        (Errors.of_word (Errors.to_word e));
      Alcotest.(check string) (name ^ " show") name (Errors.show e);
      Alcotest.(check string) (name ^ " pp") name (Format.asprintf "%a" Errors.pp e))
    errors;
  (* Every word the listing names decodes, and nothing past it does. *)
  List.iteri
    (fun i (e, _, _, name) ->
      Alcotest.(check (option err)) (name ^ " of_word") (Some e) (Errors.of_word (Word.of_int i)))
    errors;
  Alcotest.(check (option err)) "of_word 18" None (Errors.of_word (Word.of_int 18));
  Alcotest.(check (option err)) "of_word -1" None (Errors.of_word (Word.of_int (-1)))

let suite =
  [
    Alcotest.test_case "table 1 call numbers and names" `Quick test_calls;
    Alcotest.test_case "unknown call and error names" `Quick test_fallbacks;
    Alcotest.test_case "error words round-trip by name" `Quick test_errors;
  ]
