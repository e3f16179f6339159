(** Supervisor calls: the enclave-facing monitor API (Table 1, lower
    half), plus the dispatcher interface of §9.2.

    Invoked by the SVC instruction while an enclave executes: call
    number in the enclave's r0, arguments in r1.., results in r0
    (error code) and r1... The handler returns to the enclave — except
    {!Abi.svc_exit} and {!Abi.svc_resume_faulted}, which are control
    flow and are intercepted by the Enter/Resume loop in {!Smc}. *)

module Word = Komodo_machine.Word
module Exec = Komodo_machine.Exec

val fault_code : Exec.fault -> Word.t
(** How a fault is described to the dispatcher (r0 of the upcall); the
    OS is never told more than [Fault]. *)

val emit_entry : Monitor.t -> call:int -> unit
(** Trace an SVC's entry: its call and the enclave's r1 and r2. *)

val handle :
  Monitor.t -> cur_asp:Pagedb.pagenr -> cur_thread:Pagedb.pagenr -> Monitor.t * Errors.t
(** Dispatch a non-Exit, non-ResumeFaulted SVC: returns the updated
    monitor (result registers set) and the error code the enclave sees
    in r0. *)
