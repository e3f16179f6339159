(** Replay a telemetry trace (JSONL) against the abstract spec: the one
    checker of a trace the monitor wrote.

    The trace only records what crossed the monitor boundary — calls,
    arguments, error words, return values, page retypings and lifecycle
    milestones — so the replay runs the spec with every thread opaque
    and every MapSecure content unobservable (measurements degrade to
    [Mopaque]). Within those limits every deterministic fact is
    checked: the error word of every SMC, the return value of every
    call outside Enter/Resume, the legality of every Enter/Resume
    outcome, the page-type transitions of every deterministic call, and
    the lifecycle events of every call (init, finalise, stop and the
    Remove of an address space on success; enter or resume once the
    spec validates the thread). Retypings observed during opaque
    enclave execution are applied as an oracle (slot-level page-table
    state is not recoverable from a trace), each from the type the spec
    holds. SVC events occur only inside an enclave run, where entries
    and exits pair up (an exit names the open entry's call, no entry
    opens inside another, none is open at the SMC exit), every
    retyping falls inside an SVC,
    and a successful MapData, InitL2PTable or UnmapData retypes exactly
    one page (spare to data, spare to l2ptable, data to spare) while
    every other or failing SVC retypes none. SVC arguments are not
    traced, so SVC error words are not checked against the spec: a
    GetRandom returning [Entropy_exhausted] is a legal outcome no trace
    can refute. Every event but an injected fault must sit inside an
    SMC, and the trace must not end inside one. Guardian-style
    orderliness (no Enter before Finalise, nothing after Remove)
    follows. *)

type report = {
  events : int;  (** events consumed *)
  calls : int;  (** SMC calls replayed through the spec *)
  violations : (int * string) list;  (** line-ish event index, description *)
  final : Astate.t;  (** the spec state after the last event *)
}

val replay : npages:int -> Komodo_telemetry.Event.stamped list -> report
(** The spec replay alone, from the boot state, on a trace assumed well
    formed. Cycle stamps are not read, so it also takes the merged
    stream of several CPUs, each stamping with its own counter. *)

val check : npages:int -> Komodo_telemetry.Event.stamped list -> (report, string) result
(** Validate, then {!replay}. [Error] is the first event whose fields
    contradict each other or the clock: a negative cycle stamp, a stamp
    below the one before it, an SMC/SVC name that is not Table 1's name
    for its call number, or an error name that is not its word's. Such
    a trace was not written by the monitor. Check [report.violations]
    for refinement failures. *)

val replay_file : npages:int -> string -> (report, string) result
(** Parse a JSONL trace file and {!check} it; [Error] is also a read or
    parse error. *)
