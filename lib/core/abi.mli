(** Table 1: the encoding of the monitor API.

    The call numbers of the twelve SMCs (the OS-facing half) and the
    nine SVCs (the enclave-facing half, with the §9.2 dispatcher
    extension), the error words every call returns in r0, and their
    names. The monitor, enclave code, the OS model and the multi-core
    lock footprints read these; the abstract spec re-exports them from
    [Aspec]. Only the encoding is shared: each call's preconditions,
    error priority and transitions are written separately by the
    monitor and by the spec. *)

(** {2 SMC call numbers} (r0 at SMC entry) *)

val smc_get_phys_pages : int
val smc_init_addrspace : int
val smc_init_thread : int
val smc_init_l2ptable : int
val smc_alloc_spare : int
val smc_map_secure : int
val smc_map_insecure : int
val smc_finalise : int
val smc_enter : int
val smc_resume : int
val smc_stop : int
val smc_remove : int

val smc_nargs : int
(** Argument registers of an SMC: r1-r4. *)

(** {2 SVC call numbers} (the enclave's r0 at SVC; arguments in r1..) *)

val svc_exit : int
val svc_get_random : int

val svc_attest : int
(** Data in r1-r8; MAC returned in r1-r8. *)

val svc_verify : int
(** r1 points at a 96-byte buffer (data ‖ measurement ‖ MAC) readable
    through the enclave's own page table; verdict in r1. *)

val svc_init_l2ptable : int
val svc_map_data : int
val svc_unmap_data : int

val svc_set_dispatcher : int
(** r1 = fault-handler entry VA; 0 deregisters. (§9.2 extension.) *)

val svc_resume_faulted : int
(** Restore the context parked by a fault upcall and retry. Like
    [svc_exit] it is control flow, intercepted by the Enter/Resume
    loop. *)

(** {2 Error words} (r0 on return; see {!Errors} for their meaning) *)

val e_success : int
val e_invalid_pageno : int
val e_page_in_use : int
val e_invalid_addrspace : int
val e_already_final : int
val e_not_final : int
val e_invalid_mapping : int
val e_addr_in_use : int
val e_not_stopped : int
val e_interrupted : int
val e_fault : int
val e_already_entered : int
val e_not_entered : int
val e_invalid_thread : int
val e_pages_exhausted : int
val e_in_use : int
val e_invalid_arg : int
val e_entropy_exhausted : int

(** {2 Names and call lists} *)

val smc_name : int -> string
(** ["GetPhysPages"] ...; ["Unknown(n)"] for any other number. *)

val svc_name : int -> string
(** ["Exit"] ...; ["Unknown(n)"] for any other number. *)

val err_name : int -> string
(** ["Success"] ..., the {!Errors} constructor names; ["Err(n)"] for
    any other word. *)

val smcs : int list
(** Every SMC call number, ascending. *)

val svcs : int list
(** Every SVC call number, ascending. *)
