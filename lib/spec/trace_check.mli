(** Replay a telemetry trace (JSONL) against the abstract spec: the one
    checker of a trace the monitor wrote.

    The trace only records what crossed the monitor boundary — calls,
    arguments, error words, return values, page retypings and lifecycle
    milestones — so the replay runs the spec with every thread opaque
    and every MapSecure content unobservable (measurements degrade to
    [Mopaque]). Within those limits every deterministic fact is
    checked: the error word of every SMC, the return value of every
    call outside Enter/Resume, the legality of every Enter/Resume
    outcome, the page-type transitions of every call, and the lifecycle
    events of every call (init, finalise, stop and the Remove of an
    address space on success; enter or resume once the spec validates
    the thread). An Enter/Resume is validated on the state it entered
    with. Inside the run it opens, every SVC is stepped through
    {!Aspec.step_svc} from its traced r0-r2, from the state the run's
    earlier SVCs left: its error word and its retypes must be the
    spec's, and every retyping must fall inside an SVC. Exit and
    ResumeFaulted are control flow: not stepped, and they retype
    nothing. The run's outcome is resolved on the state its SVCs left.
    SVC events occur only inside a validated run, where entries and
    exits pair up (an exit names the open entry's call, no entry opens
    inside another, none is open at the SMC exit). A GetRandom that
    reports [Entropy_exhausted] depends on RNG state no trace shows: it
    is counted in [undecided], never as a pass. Every event but an
    injected fault must sit inside an SMC, and the trace must not end
    inside one. Guardian-style orderliness (no Enter before Finalise,
    nothing after Remove) follows. *)

type report = {
  events : int;  (** events consumed *)
  calls : int;  (** SMC calls replayed through the spec *)
  undecided : int;  (** SVC outcomes no trace can decide (GetRandom entropy) *)
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
    for its call number, an error name that is not its word's, or an
    [svc_entry] without exactly two arguments (r1, r2). Such
    a trace was not written by the monitor. Check [report.violations]
    for refinement failures. *)

val replay_file : npages:int -> string -> (report, string) result
(** Parse a JSONL trace file and {!check} it; [Error] is also a read or
    parse error. *)
