(** Fault-injection campaigns over the differential lockstep checker.

    Each trial builds a {!Komodo_spec.Diff} world (booted platform,
    probe + workload + mid-construction enclaves), installs the
    {!Inject} hooks into the monitor and the user-mode executor, and
    then steps an adversarial op sequence decorated with faults:
    spurious IRQ/FIQ at commit points and instruction boundaries,
    concurrent-core stores to insecure memory mid-SMC, entropy
    exhaustion and reseeding, SMC storms of malformed calls, and
    crash/restarts of the untrusted OS with enclaves live.

    After every step the driver asserts, on top of the lockstep spec
    comparison {!Komodo_spec.Diff.apply_op} already performs:

    - the PageDB invariants ({!Komodo_core.Pagedb.check}) still hold;
    - transactional atomicity: a call that returned an error left the
      PageDB *and* the concrete contents of every secure page exactly
      as they were (Enter/Resume excepted — they commit before running
      opaque enclave code, whose suspension is a legal effect).

    A violating campaign is shrunk with the checker's generic
    1-minimal shrinker. Everything is seed-deterministic, and a shrunk
    campaign serialises to a JSONL trace that replays exactly. *)

module Monitor = Komodo_core.Monitor
module Diff = Komodo_spec.Diff
module Span = Komodo_telemetry.Span

(** The five fault classes of the campaign generator. *)
type fault_class =
  | F_irq  (** spurious IRQ/FIQ at commit points and instruction boundaries *)
  | F_mem  (** concurrent-core/DMA stores to insecure memory mid-call *)
  | F_rng  (** entropy-source exhaustion and glitch reseeds *)
  | F_storm  (** bursts of malformed SMCs on the monitor interface *)
  | F_crash  (** crash/restart of the untrusted OS with enclaves live *)

val class_name : fault_class -> string
val class_of_string : string -> fault_class option
val all_classes : fault_class list

(** One campaign step: a checked lockstep op with faults armed, or an
    OS crash/restart between calls. *)
type fop =
  | Op of { op : Diff.op; inj : Inject.plan_item list }
  | Crash of { seed : int }

val pp_fop : fop -> string

type violation = { index : int; fop : fop; reason : string }

val pp_violation : violation -> string

type stats = {
  fops_run : int;
  injections : int;  (** faults actually fired *)
  worst_blackout : int;
      (** widest window (cycles) between a commit-point interrupt
          assertion and the OS regaining control *)
}

val run_fops :
  ?bug:Monitor.bug -> Diff.world -> fop list -> (stats, violation) result
(** Run one campaign from the world's initial state. [bug] re-enables a
    deliberate partial-mutation bug in the monitor (checker
    self-test). *)

val gen_fops :
  Diff.world -> faults:fault_class list -> seed:int -> n:int -> fop list
(** Decorate an adversarial op sequence with faults drawn from the
    enabled classes; deterministic in [seed]. *)

(** {2 The campaign driver}

    One fault trial is a pure function of its seed. This module meets
    [Komodo_campaign.Campaign.DRIVER]; the campaign loop (seed-split
    trial derivation, domain pool, shrinking) lives there. *)

val kind : string
(** ["fault"]. *)

type config = {
  npages : int;  (** secure pages per trial world *)
  ops_per_trial : int;  (** adversarial ops before fault decoration *)
  profile : bool;  (** record per-trial span trees *)
  clock : Span.clock option;
      (** wallclock for profiles; without it a profile is a pure
          function of the seed *)
  bug : Monitor.bug option;  (** re-armed monitor bug (self-test) *)
  faults : fault_class list;  (** the armed fault classes *)
}

val default : config
(** 40 pages, 40 ops, every fault class, no bug, no profile. *)

val validate : config -> (unit, string) result
(** The differential world's rules ({!Komodo_spec.Diff.validate}). *)

type op = fop
type failure = violation

type trial = {
  t_run : (stats, violation) result;
      (** a violating trial counts only the fops before the violation:
          no injections, no blackout (report convention) *)
  t_classes : (string * int) list;
      (** armed plan items per fault class (crash fops under ["crash"];
          storms are malformed ops, not injections, so ["storm"] stays
          0); all-zero on a violating trial *)
  t_spans : Span.node list;
      (** per-trial profile spans ([[]] unless profiling) *)
}

val run_trial : config -> seed:int -> trial
val failed : trial -> bool

val shrink : config -> seed:int -> (fop list * violation) option
(** Regenerate trial [seed] and shrink its violation to a 1-minimal
    campaign; [None] if the trial does not actually violate. *)

val counters : trial -> (string * int) list
(** ops, injections, then {!trial.t_classes}. *)

type outcome = {
  trials_run : int;
  total_fops : int;
  total_injections : int;
  blackout : int;  (** worst over all trials, cycles *)
  violation : (int * fop list * violation) option;
      (** trial seed, shrunk campaign, violation *)
  spans : Span.node list;
      (** per-trial span trees concatenated in trial-index order *)
}

val reduce : trial list -> (int * fop list * violation) option -> outcome
(** fop/injection totals are sums, blackout is a max. *)

val replay : config -> seed:int -> fop list -> (stats, violation) result
(** Rebuild trial [seed]'s world and re-run a (shrunk) campaign. *)

val header : config -> (string * Komodo_telemetry.Json.t) list
(** Trace-header fields: ["npages"] and ["bug"]. *)

val of_header : Komodo_telemetry.Json.t -> (config, string) result
val op_to_json : fop -> Komodo_telemetry.Json.t
val op_of_json : config -> Komodo_telemetry.Json.t -> (fop, string) result
(** The lockstep op in {!Komodo_spec.Diff.op_of_json}'s codec; injected
    stores must be word-aligned. *)
