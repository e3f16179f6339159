(** The seeded, deterministic fault injector.

    Models the adversarial environment of the paper's threat model
    (§3.1): everything *outside* the secure world may misbehave at any
    instant — a concurrent core or DMA engine storing to OS-owned
    insecure memory mid-SMC, the interrupt controller asserting
    IRQ/FIQ at an arbitrary instruction boundary, the hardware entropy
    source running dry. The injector can do exactly those things and
    nothing more: an action aimed at secure memory is silently blocked,
    as the TZASC would block it.

    Faults land at two kinds of {!point}:

    - {!Commit} — the boundary between a monitor call's validation
      phase and its single atomic commit (see {!Komodo_core.Monitor.phase}),
      the worst instant for a concurrent-writer fault;
    - [Insn n] — the [n]th instruction boundary of enclave user-mode
      execution within the current call, via the machine layer's
      {!Komodo_machine.Exec.run_bytecode} hook.

    One injector instance is armed with a plan per monitor call and
    fires deterministically, so whole fault campaigns replay exactly
    from a seed. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Exec = Komodo_machine.Exec
module Platform = Komodo_tz.Platform
module Monitor = Komodo_core.Monitor

type action =
  | Irq  (** assert IRQ (recorded; serviced when the monitor unmasks) *)
  | Fiq  (** assert FIQ *)
  | Mem_write of { addr : int; value : int }
      (** concurrent-core/DMA store to insecure memory; blocked by the
          modelled TZASC if [addr] is secure *)
  | Rng_reseed of int  (** the entropy source glitches to a new state *)
  | Rng_exhaust  (** the entropy source runs dry (budget 0) *)

type point =
  | Commit  (** the validate/commit boundary of the current call *)
  | Insn of int  (** the [n]th user instruction boundary of the call *)
  | Lockstep of int
      (** the [n]th lock acquire/release boundary of the current call,
          as fired by the multi-core stepper
          ({!Komodo_core.Monitor.phase}[ Ph_lock]) — the instants where
          another core's effects become visible to the holder *)

type plan_item = { point : point; action : action }

val action_name : action -> string
val pp_item : plan_item -> string

type t
(** Mutable injector state: the armed plan, the per-call instruction
    counter, and the log of fired injections. *)

val create : plat:Platform.t -> unit -> t

val arm : t -> plan_item list -> unit
(** Install the plan for the next monitor call and reset the
    instruction counter. *)

val disarm : t -> unit
(** Drop anything still armed (call ended before it could fire). *)

val fired : t -> (string * string) list
(** Everything fired so far, oldest first, as [(point, action)]
    strings — e.g. [("commit:smc:6", "mem_write:0x10000040")]. *)

val fired_count : t -> int

val take_blackout : t -> int option
(** Monitor cycle count at the first commit-point IRQ/FIQ assertion
    since the last call to this function; the driver subtracts it from
    the post-call cycle count to get the interrupt-blackout window. *)

val hook : t -> Monitor.phase -> Monitor.t -> Monitor.t
(** The {!Komodo_core.Monitor.t}[.inject] hook: fires every armed
    [Commit]-point action at the first commit boundary encountered,
    then disarms them (fire-once, so a deterministic plan stays
    predictable across the several commits of one Enter); counts
    [Ph_lock] boundaries and fires armed [Lockstep] actions at the
    matching index, with identical action semantics (the TZASC gate
    applies at lock boundaries too). *)

val exec_inject : t -> Exec.inject
(** The machine-layer hook for {!Komodo_machine.Exec.run}: counts
    instruction boundaries and answers [None], allocating nothing,
    unless an [Insn]-point action is armed for this one. Then it fires
    them on the state it is handed: [Irq]/[Fiq] force the corresponding
    event, ending the burst; [Mem_write] perturbs insecure memory under
    the enclave's feet; RNG actions are commit-point-only and ignored
    here. Its quiet count runs to the next armed [Insn] item (or is
    unbounded), again without allocating, and the boundaries a cycle
    summary passes are added to the count, so [Insn] items fire and
    are named exactly as in a step-by-step run. *)
