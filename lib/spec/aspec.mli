(** The abstract monitor: one pure transition function per SMC and SVC
    of Table 1, written from the paper's semantics (§4, Figure 3, §9.1,
    §9.2) over {!Astate} — never from the implementation's machine
    state.

    Everything deterministic is predicted exactly, including the error
    code of every failing precondition and its priority over later
    checks. The one nondeterministic point is what a *running* enclave
    does during Enter/Resume: enclave code and registers are opaque
    secrets, so the spec returns a {!pending} obligation that the
    caller resolves with the observed outcome — which must be one of
    Success (SvcExit), Interrupted, or Fault; any other error code is a
    refinement violation. A probe thread (whose program is known to the
    checker: issue one SVC, exit with its error code) is predicted
    exactly instead, making every SVC's error semantics checkable at
    the SMC boundary. *)

(** Table 1's encoding — SMC and SVC call numbers, error words and
    their names — re-exported from {!Komodo_core.Abi}. Only the
    encoding is shared with the monitor; everything below is written
    from the paper. *)
include module type of Komodo_core.Abi

(** Deliberately-wrong variants of the spec, used by the checker's
    self-test: each resurrects a §9.1-style bug, and the differential
    driver must catch and shrink the resulting divergence. *)
type mutation =
  | No_alias_check
      (** accept [InitAddrspace(p, p)] — §9.1 war story 1 *)
  | No_monitor_image_check
      (** skip the MapSecure content validity check entirely, accepting
          in particular the monitor's own image — §9.1 war story 2 *)
  | Drop_refcount
      (** forget to count threads against the addrspace refcount *)

val mutation_of_string : string -> mutation option
val mutation_name : mutation -> string
val mutations : mutation list

exception Stuck of string
(** The spec cannot make sense of its own state (e.g. a first-level
    slot points at a page the spec does not consider a second-level
    table). Reported as a divergence, never swallowed. *)

(** An Enter/Resume whose preconditions the spec has validated, waiting
    for the observed outcome of opaque enclave execution. *)
type pending = { th : int; asp : int; resume : bool }

type result =
  | Done of Astate.t * int * int
      (** new state, error word (r0), return value (r1) *)
  | Pending of pending

val step_smc :
  ?mutate:mutation ->
  ?rng_exhausted:bool ->
  Astate.t ->
  probe:(Astate.t -> int -> bool) ->
  contents:string option ->
  call:int ->
  args:int list ->
  result
(** One SMC transition. [args] are the words in r1-r4 (missing ones read
    as zero, as the trap path zeroes unused argument registers).
    [contents] is the oracle for MapSecure initial contents: the staged
    insecure page's bytes at call time ([None] degrades the measurement
    transcript to opaque). [probe] decides whether a thread page is a
    live probe thread whose execution is predicted exactly.
    [rng_exhausted] is the entropy oracle: when true, a probe GetRandom
    is predicted to fail with {!e_entropy_exhausted} (the fault model's
    drained hardware source). *)

val resolve : Astate.t -> pending -> outcome:[ `Exit | `Interrupted | `Fault ] -> Astate.t
(** Apply the observed outcome of an opaque enclave run to the spec
    state (Figure 3: running -> final / suspended / faulted). *)

val allowed_outcome : int -> [ `Exit | `Interrupted | `Fault ] option
(** Classify an observed Enter/Resume error word; [None] means the word
    is not a legal outcome of enclave execution. *)

val step_svc :
  ?mutate:mutation ->
  ?rng_exhausted:bool ->
  Astate.t ->
  asp:int ->
  thread:int ->
  call:int ->
  a1:int ->
  a2:int ->
  Astate.t * int
(** One SVC transition for an enclave of [asp] running thread [thread]:
    call in the enclave's r0, arguments r1/r2; returns the new state and
    the error word the enclave sees in r0. [svc_exit] and
    [svc_resume_faulted] are control flow, not SVCs — they never reach
    this function. *)
