(** Secure monitor calls: the OS-facing API (Table 1, upper half) and
    the enclave-execution state machine of Figure 3.

    {!handle} is the top level of the specification — it relates the
    machine state and PageDB just after an SMC exception to the states
    just before returning to the OS. Across every SMC the register
    discipline holds (non-volatile and banked registers preserved,
    non-return registers zeroed, insecure memory untouched), and
    Enter/Resume nest the whole user-execution/SVC loop inside one
    SMC. *)

module Word = Komodo_machine.Word

val log_src : Logs.src
(** Monitor call trace source; enable with
    [Logs.Src.set_level Smc.log_src (Some Logs.Debug)]. *)

val handle : ?exec:Uexec.t -> Monitor.t -> Monitor.t * Errors.t * Word.t
(** Handle an SMC: the machine must be in monitor mode with the call in
    r0-r4 (just after the SMC exception). Returns with the machine back
    in the OS's mode and world, r0/r1 holding the result, and every
    other OS-visible register preserved.
    @raise Invalid_argument if not in monitor mode. *)

val invoke :
  ?exec:Uexec.t ->
  Monitor.t ->
  call:int ->
  args:Word.t list ->
  Monitor.t * Errors.t * Word.t
(** OS-side convenience: from normal world, place the call in the
    argument registers, take the SMC exception, handle, return.
    @raise Invalid_argument from the secure world or with more than
    four arguments. *)
