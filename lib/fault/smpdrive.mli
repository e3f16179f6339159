(** Multi-core lock-discipline campaigns over the interleaved stepper.

    Each trial boots the platform with a collecting telemetry sink,
    runs a sequential prelude giving every CPU its own unfinalised
    address space, then races a seeded per-CPU stream of construction
    calls over a small shared page pool through {!Komodo_os.Smp.run}.
    Three oracles judge the run: the stepper's deadlock detector (any
    wait-for cycle is a violation — the ascending acquisition order
    excludes them by construction), {!Komodo_core.Pagedb.check} on the
    final shared state, and {!Komodo_spec.Trace_check.replay} of the
    monitor's trace, whose calls stand in validation order (the spec
    must accept every event and end in the committed abstract state).
    Violations shrink to a 1-minimal op list and serialise to replay
    traces. *)

module Smp = Komodo_os.Smp

type sop = { s_cpu : int; s_call : int; s_args : int list }

val pp_sop : sop -> string

type violation = {
  index : int;  (** last op index of the violating run (for shrinking) *)
  kind : string;  (** ["deadlock"] | ["invariant"] | ["linearisability"] *)
  reason : string;
}

val pp_violation : violation -> string

val asp_page : int -> int
(** The prelude address-space page of a CPU (pages [3c .. 3c+2] are cpu
    [c]'s addrspace / l1pt / l2pt). *)

val pool_base : cpus:int -> int
(** First page of the contended pool (the 8 pages every CPU races on). *)

val pool_pages : int

val gen_faults : seed:int -> n:int -> Inject.plan_item list
(** A seeded lock-boundary fault plan ({!Inject.Lockstep} points only):
    insecure-window writes, interrupts, RNG glitches. *)

type stats = {
  calls : int;
  contended : int;
  uncontended : int;
  spins : int;
  retries : int;
  lock_cycles : int;
  injections : int;  (** lock-boundary faults actually fired *)
}

val gen_sops : seed:int -> cpus:int -> ops_per_cpu:int -> sop list

(** {2 The campaign driver}

    Meets [Komodo_campaign.Campaign.DRIVER]. *)

val kind : string
(** ["smp"]. *)

type config = {
  npages : int;  (** secure pages per trial world *)
  cpus : int;  (** cores racing in each trial *)
  ops_per_cpu : int;  (** monitor calls per CPU per trial *)
  bug : Smp.bug option;  (** re-armed lock-discipline bug (self-test) *)
  faults : bool;  (** fire the injector at lock boundaries too *)
}

val default : config
(** 32 pages, 4 CPUs, 8 calls each, no bug, no faults. *)

val validate : config -> (unit, string) result
(** At least one CPU, a non-negative op count, and room for the per-CPU
    preludes and the shared pool. *)

val replay : config -> seed:int -> sop list -> (stats, violation) result
(** Deterministic: rebuilds the whole world from [seed] each call.
    @raise Invalid_argument on a config {!validate} rejects. *)

type op = sop
type failure = violation

type trial = (stats, violation) result
(** A violating trial contributes nothing to the campaign totals. *)

val run_trial : config -> seed:int -> trial
val failed : trial -> bool

val shrink : config -> seed:int -> (sop list * violation) option
(** [None] if the trial does not violate when re-run from its seed. *)

val counters : trial -> (string * int) list
(** ops (calls), contended, uncontended, spins, lock_cycles,
    injections; none for a violating trial. *)

type outcome = {
  trials_run : int;
  total_calls : int;
  total_contended : int;
  total_uncontended : int;
  total_spins : int;
  total_retries : int;
  total_lock_cycles : int;
  total_injections : int;
  violation : (int * sop list * violation) option;
}

val reduce : trial list -> (int * sop list * violation) option -> outcome

val header : config -> (string * Komodo_telemetry.Json.t) list
(** Trace-header fields: ["npages"], ["cpus"] and ["bug"]. *)

val of_header : Komodo_telemetry.Json.t -> (config, string) result
val op_to_json : sop -> Komodo_telemetry.Json.t

val op_of_json : config -> Komodo_telemetry.Json.t -> (sop, string) result
(** The op's CPU must be one of the config's, and an SMC takes at most
    four arguments. *)
