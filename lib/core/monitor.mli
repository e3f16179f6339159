(** Monitor state and shared helpers.

    The verified artefact in the paper is the relation
    [smchandler(s, d, s', d')] over machine states and abstract PageDBs;
    accordingly the monitor state here is exactly that pair plus the
    boot-time platform facts. The SMC and SVC handlers live in {!Smc}
    and {!Svc}; this module holds the state type and the page-access and
    register-discipline helpers they share. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Platform = Komodo_tz.Platform
module Rng = Komodo_tz.Rng

(** Fault-injection points inside a handler: the commit point sits
    between a call's pure validation phase and its single atomic
    commit, where asynchronous environment actions (concurrent-core
    stores, interrupt assertion, entropy failure) would land; lock
    boundaries (fired by the multi-core stepper, [acquire] true just
    after an acquisition, false just before a release) are where a
    concurrent core's effects become visible to the holder. *)
type phase =
  | Ph_commit of { smc : bool; call : int }
  | Ph_lock of { acquire : bool; cpu : int; page : int; call : int }

type t = {
  mach : State.t;
  pagedb : Pagedb.t;
  plat : Platform.t;
  attest_key : string;  (** 32-byte boot-derived attestation secret *)
  rng : Rng.t;
  optimised : bool;
      (** §8.1 ablation switch: skip the conservative FIQ/IRQ
          banked-register saves and redundant TTBR reload + TLB flush.
          Functionally identical (property-tested). *)
  sink : Komodo_telemetry.Sink.t;
      (** Telemetry sink for the instrumented hot paths; the default
          null sink makes instrumentation a single branch with no
          allocation and no modelled-cycle cost. *)
  spans : Komodo_telemetry.Span.recorder;
      (** Shared mutable span recorder for the hierarchical profiler;
          the default null recorder costs one branch per site. *)
  inject : (phase -> t -> t) option;
      (** Fault-injection hook fired at every phase boundary; [None]
          (the default) is fault-free execution. The injector is bound
          by the threat model: insecure memory, the entropy source and
          interrupt lines only. *)
  bug : Bugs.t option;  (** the armed seeded bug, of the {!Bugs.Monitor} layer *)
}

val of_boot :
  ?optimised:bool ->
  ?sink:Komodo_telemetry.Sink.t ->
  ?spans:Komodo_telemetry.Span.recorder ->
  Komodo_tz.Boot.t ->
  t

val phase : t -> phase -> t
(** Fire the fault-injection hook at a phase boundary (identity when no
    injector is installed). *)
val charge : int -> t -> t
val cycles : t -> int

(* Telemetry *)

val telemetry_on : t -> bool
(** True unless the sink is null — instrumentation sites guard on this
    before building events. *)

val emit : t -> Komodo_telemetry.Event.t -> unit
(** Emit one event stamped with the current cycle counter. Side effect
    of the shared sink; charges no modelled cycles. *)

(* Spans: hierarchical profiling hooks. All are single-branch no-ops
   when the recorder is null; none charges modelled cycles. *)

val spans_on : t -> bool
val span_enter : t -> string -> unit
val span_exit : t -> unit

val span_mark : t -> string -> unit
(** Close the open span and start a same-depth sibling (the
    validate-to-commit transition inside a handler). *)

val span_depth : t -> int
val span_exit_to : t -> int -> unit
(** Unwind to a depth snapshot taken at handler entry — robust across
    error-path early returns. *)

(* Secure-page access *)

val page_pa : t -> Pagedb.pagenr -> Word.t
val load_page_word : t -> Pagedb.pagenr -> int -> Word.t
val store_page_word : t -> Pagedb.pagenr -> int -> Word.t -> t

val page_bytes : t -> Pagedb.pagenr -> string
(** Whole-page contents, big-endian (for measurement). *)

val zero_page : t -> Pagedb.pagenr -> t
(** Scrub a page, charging the zero-fill cost. *)

val fill_page_from_insecure : t -> Pagedb.pagenr -> src:Word.t -> t
(** Copy one page from (already-validated) insecure memory; [src = 0]
    means zero-fill, as in the Komodo sources. *)

val dirty_tlb : t -> t
(** Mark the TLB inconsistent after a store into a live page table. *)

(* Page-table manipulation *)

val install_l1e : t -> l1pt:Pagedb.pagenr -> l2pt:Pagedb.pagenr -> i1:int -> t
val l2pt_for : t -> l1pt:Pagedb.pagenr -> Word.t -> Pagedb.pagenr option
val read_l2e : t -> l2pt:Pagedb.pagenr -> Word.t -> Word.t
val write_l2e : t -> l2pt:Pagedb.pagenr -> Word.t -> Word.t -> t

(* Register discipline (§5.2): non-volatile registers preserved across
   every SMC, non-return registers zeroed, insecure memory invariant. *)

type os_context

val save_os_context : t -> t * os_context
val restore_os_context : t -> os_context -> err:Errors.t -> retval:Word.t -> t

val arg : t -> int -> Word.t
(** SMC argument register r{i} as captured at SMC entry. *)

(* Validation helpers *)

val valid_pagenr : t -> Word.t -> int option

val free_page : t -> Word.t -> (int, Errors.t) result
(** The argument as a page number, provided it denotes a free page. *)

val addrspace_page :
  t -> ?want:Pagedb.addrspace_state -> Word.t -> (int * Pagedb.addrspace_info, Errors.t) result
(** The argument as an address space, optionally in a required state. *)
