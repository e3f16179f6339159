(** Table 1: the encoding of the monitor API — call numbers, error
    words and their names. The one definition the monitor, enclave
    code, the OS model and the abstract spec all read. *)

(* SMC call numbers (r0 at SMC entry). *)
let smc_get_phys_pages = 1
let smc_init_addrspace = 2
let smc_init_thread = 3
let smc_init_l2ptable = 4
let smc_alloc_spare = 5
let smc_map_secure = 6
let smc_map_insecure = 7
let smc_finalise = 8
let smc_enter = 9
let smc_resume = 10
let smc_stop = 11
let smc_remove = 12

let smc_nargs = 4

(* SVC call numbers (the enclave's r0 at SVC). *)
let svc_exit = 0
let svc_get_random = 1
let svc_attest = 2
let svc_verify = 3
let svc_init_l2ptable = 4
let svc_map_data = 5
let svc_unmap_data = 6

(* The dispatcher interface (§9.2 future work, implemented here):
   enclaves may register a fault-handler entry point; faults then upcall
   into the enclave instead of exiting to the OS, enabling enclave
   self-paging without exposing page faults to the untrusted OS. *)
let svc_set_dispatcher = 7
let svc_resume_faulted = 8

(* Error words (r0 on return from either kind of call). *)
let e_success = 0
let e_invalid_pageno = 1
let e_page_in_use = 2
let e_invalid_addrspace = 3
let e_already_final = 4
let e_not_final = 5
let e_invalid_mapping = 6
let e_addr_in_use = 7
let e_not_stopped = 8
let e_interrupted = 9
let e_fault = 10
let e_already_entered = 11
let e_not_entered = 12
let e_invalid_thread = 13
let e_pages_exhausted = 14
let e_in_use = 15
let e_invalid_arg = 16
let e_entropy_exhausted = 17

(* Names in number order, from each kind's first number. *)
let smc_names =
  [| "GetPhysPages"; "InitAddrspace"; "InitThread"; "InitL2PTable"; "AllocSpare";
     "MapSecure"; "MapInsecure"; "Finalise"; "Enter"; "Resume"; "Stop"; "Remove" |]

let svc_names =
  [| "Exit"; "GetRandom"; "Attest"; "Verify"; "InitL2PTable"; "MapData"; "UnmapData";
     "SetDispatcher"; "ResumeFaulted" |]

let err_names =
  [| "Success"; "Invalid_pageno"; "Page_in_use"; "Invalid_addrspace"; "Already_final";
     "Not_final"; "Invalid_mapping"; "Addr_in_use"; "Not_stopped"; "Interrupted"; "Fault";
     "Already_entered"; "Not_entered"; "Invalid_thread"; "Pages_exhausted"; "In_use";
     "Invalid_arg"; "Entropy_exhausted" |]

let name names ~first ~unknown n =
  let i = n - first in
  if i >= 0 && i < Array.length names then names.(i) else unknown n

let smc_name = name smc_names ~first:smc_get_phys_pages ~unknown:(Printf.sprintf "Unknown(%d)")
let svc_name = name svc_names ~first:svc_exit ~unknown:(Printf.sprintf "Unknown(%d)")
let err_name = name err_names ~first:e_success ~unknown:(Printf.sprintf "Err(%d)")

let smcs = List.init (Array.length smc_names) (fun i -> smc_get_phys_pages + i)
let svcs = List.init (Array.length svc_names) (fun i -> svc_exit + i)
