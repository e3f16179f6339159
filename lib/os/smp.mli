(** True multi-core execution of the monitor (paper §9.2, taken
    further).

    Several OS cores drive per-CPU machine banks
    ({!Komodo_machine.Multicore}) against one shared memory and one
    shared PageDB; mutual exclusion is the fine-grained per-page
    locking of {!Komodo_core.Lock}. A seeded scheduler advances the
    in-flight calls one micro-step at a time through a
    footprint/acquire/validate/commit state machine; validation under a
    complete lock footprint is each call's linearisation point, and the
    gap between validate and commit is what makes lock-discipline bugs
    observable as lost updates or deadlocks. Runs are a pure function
    of [(seed, scripts)]. *)

module Word = Komodo_machine.Word
module Errors = Komodo_core.Errors
module Lock = Komodo_core.Lock

type call = { call : int; args : Word.t list }

val lock_cost : int
(** Uncontended acquire/release pair (LDREX/STREX + barrier). *)

val spin_cost : int
(** One spin iteration while waiting. *)

type stats = {
  total_calls : int;
  contended_acquisitions : int;
      (** acquisitions that spun at least once before succeeding *)
  uncontended_acquisitions : int;
  spin_iterations : int;
  retries : int;  (** footprint-went-stale release-and-restart events *)
  lock_cycles : int;
      (** always [lock_cost * (contended + uncontended) + spin_cost *
          spin_iterations] — the identity the qcheck suite pins *)
}

type waiter = { w_cpu : int; w_holds : int list; w_wants : int }
type deadlock = { dl_cycle : waiter list }

type outcome = {
  os : Os.t;  (** final shared state, [mach] reassembled as CPU 0's view *)
  results : (int * (Errors.t * Word.t) list) list;
      (** per-core results in issue order *)
  stats : stats;
  history : Lock.t list list;
      (** lock acquisition order per retired call, in completion order —
          the input to {!Komodo_core.Lock.acyclic} *)
  deadlock : deadlock option;
      (** the wait-for cycle, if the run deadlocked (remaining calls are
          then unretired) *)
}

val run :
  ?seed:int -> ?bug:Komodo_core.Bugs.t -> Os.t -> scripts:call list list -> outcome
(** Run one script per core against the shared state. Deterministic in
    [(seed, scripts, bug)]. The stepper reacts only to a
    {!Komodo_core.Bugs.Stepper} bug: two racing MapSecures can then
    both validate one free page, or a Remove can deadlock. The monitor's
    fault injector, when armed,
    also fires at lock acquire/release boundaries
    ({!Komodo_core.Monitor.phase}[ Ph_lock]). The monitor's telemetry
    sink receives each call's events as the call validates, so its
    stream lists the calls in validation order, each event stamped
    with its own CPU's cycle counter.
    @raise Invalid_argument on zero scripts.
    @raise Failure on livelock (tick bound exceeded — cannot happen
    with the ascending-order discipline). *)

val build_script : pages:int * int * int * int * int -> call list
(** A construction script for a minimal enclave out of the given
    (addrspace, l1pt, l2pt, data, thread) pages. *)
