(** User-mode executors.

    The monitor's Enter/Resume path is parametric in *how* user code
    runs, mirroring the paper's two levels:

    - {!concrete} actually interprets the enclave's code (bytecode or a
      registered native service) through the page table;
    - {!havoc} is the specification model (§5.1, §6.3): user execution
      trashes all user-visible registers and all user-writable pages,
      as uninterpreted-but-deterministic functions of the user-visible
      state and a non-determinism seed. Updates to *insecure* writable
      pages, and the exception ending the burst, depend on the seed
      alone — equal seeds therefore give equal declassified outputs,
      the paper's "same seed for the observer enclave" hypothesis.

    The noninterference harness runs the monitor with {!havoc}; the
    examples and benchmarks run it with {!concrete}. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Exec = Komodo_machine.Exec

type result = { mach : State.t; event : Exec.event }

type t = {
  name : string;
  run : State.t -> entry_va:Word.t -> start_pc:int -> iter:int -> result;
      (** [iter] counts SVC round-trips within one Enter, giving the
          havoc model a fresh seed per burst. *)
}

val concrete :
  ?fuel:int ->
  ?native:(int -> Exec.native option) ->
  ?probe:(steps:int -> unit) ->
  ?inject:Exec.inject ->
  unit ->
  t
(** [probe] observes the instructions retired per burst — the machine
    layer's telemetry hook (e.g. feed it into a metrics registry with
    {!Komodo_telemetry.Metrics.add_count}). [inject] is the
    fault-injection hook threaded down to {!Exec.run_bytecode}. *)

val visible_state_key : State.t -> string
(** Digest of the user-visible state (registers, flags, PC, every
    writable page reachable through the current table): the input of
    the havoc model's uninterpreted update functions. *)

val havoc : ?dynamic:bool -> seed:int -> unit -> t
(** The spec-level executor. With [dynamic] the modelled enclave also
    issues dynamic-memory SVCs (the declassification channel of
    §6.2). *)
