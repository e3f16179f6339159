(** User-mode execution.

    Runs flat programs ({!Insn.fop}) fetched from enclave memory through
    the page table — code pages are ordinary measured data pages — with
    every data access translated and permission-checked, and external
    interrupts modelled by [State.irq_budget]. A burst of user execution
    always ends with an {!event}, which the monitor's Enter/Resume loop
    turns into the corresponding ARM exception.

    Native services: a code page beginning with {!native_magic} names a
    registered native function instead of bytecode. These model
    enclaves (the notary, the verifier) whose inner loops would be
    impractical in bytecode; they receive the same translated view of
    memory and must keep any resumable state in registers and enclave
    memory, like real code. *)

type fault = Alignment | Translation | Permission | Prefetch | Undef_insn

val equal_fault : fault -> fault -> bool
val pp_fault : Format.formatter -> fault -> unit
val show_fault : fault -> string

type event =
  | Ev_svc of Word.t  (** SVC taken; the immediate is a call hint *)
  | Ev_irq
  | Ev_fiq
  | Ev_fault of fault

val equal_event : event -> event -> bool
val pp_event : Format.formatter -> event -> unit
val show_event : event -> string

val code_magic : Word.t
(** First word of a bytecode code page ("KODC"). *)

val native_magic : Word.t
(** First word of a native-service code page ("KONV"). *)

(** Loads and stores as issued by user-mode code: virtual addresses
    translated through TTBR0, permission-checked. Also the only memory
    access native services may use, which keeps them honest. *)
module Uview : sig
  val translate : State.t -> Word.t -> (Ptable.frame, fault) result
  val load : State.t -> Word.t -> (Word.t, fault) result
  val store : State.t -> Word.t -> Word.t -> (State.t, fault) result

  val fetch : State.t -> Word.t -> (Word.t, fault) result
  (** Instruction fetch: requires execute permission. *)
end

type native_outcome = { nstate : State.t; nevent : event }

type native = State.t -> native_outcome
(** A native service invocation: one burst of execution ending in an
    event. *)

type image_cache
(** A small per-executor memo of decoded bytecode programs, keyed on
    entry point, each kept with its table of summarisable cycles (see
    {!run_bytecode}). A hit requires every page the image was fetched
    from to still translate to the same executable frame backed by the
    same (immutable) memory chunk — so a hit is provably identical to
    refetching, and any store to a code page, remapping, or table edit
    invalidates by construction. *)

val image_cache : unit -> image_cache

type inject = {
  due : unit -> (State.t -> State.t * event option) option;
      (** Asked at an instruction boundary whether anything is due. Only
          on [Some fire] is the machine state built and handed to
          [fire], which may perturb it (asynchronous hardware writes to
          memory the attacker owns) and force an event ending the burst,
          exactly as a real interrupt would. *)
  quiet : unit -> int;
      (** How many coming boundaries, the next one first, [due] would
          answer [None] at: [0] if something is due at the next one or
          the hook cannot say, [max_int] if nothing will ever be due.
          Asked only where a cycle summary could run. *)
  passed : int -> unit;
      (** A cycle summary passed this many boundaries, all within the
          last [quiet] count, without asking [due] at any of them. *)
}
(** The fault-injection hook. A hook whose [quiet] always answers [0]
    is asked [due] at every boundary, and every burst under it runs
    step by step. *)

val run_bytecode :
  ?probe:(steps:int -> unit) ->
  ?inject:inject ->
  State.t ->
  Insn.fop array ->
  start_pc:int ->
  fuel:int ->
  State.t * event
(** Interpret from flat index [start_pc] until an event; [fuel] bounds
    total steps (exhaustion models a timer interrupt). On return,
    [State.upc] holds the flat index at which execution stopped — the
    resumption PC (for SVCs, past the SVC; for faults, the faulting
    instruction itself so it can be retried). [probe] observes the
    number of instructions retired in the burst (telemetry hook; never
    affects execution or cycle charging). Step by step, [inject.due] is
    asked once at the top of every step, before the fuel, budget and pc
    checks — so also at the step that ends the burst on one of them.

    Cycle summaries: a cycle closed by an [FJmp] back to its own head,
    whose other ops are each [Nop] or [Add]/[Sub rd, rd, #imm], is run
    in closed form. When that jump lands on the head, whole iterations
    are applied at once — register deltas, cycles, retired count,
    budget and fuel — as many as fuel, a non-negative budget and
    [inject.quiet] all allow, less one; the boundaries they pass are
    reported to [inject.passed]. The step loop then takes the rest, so
    the event, the stop point and every field of the result are those
    of a step-by-step run, and [due] is asked at every boundary where
    something could be due. *)

val run :
  ?probe:(steps:int -> unit) ->
  ?inject:inject ->
  ?cache:image_cache ->
  State.t ->
  entry_va:Word.t ->
  start_pc:int ->
  fuel:int ->
  native:(int -> native option) ->
  State.t * event
(** Execute user code at [entry_va], dispatching native services through
    [native]. An undecodable image is a prefetch abort. Native bursts
    report zero retired instructions to [probe]. [cache] memoises
    decoded bytecode across bursts (see {!image_cache}). *)
