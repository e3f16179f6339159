(** N-CPU machine state: per-CPU architectural state sharing one
    copy-on-write memory.

    The split of {!State.t} the multi-core monitor steps over: each CPU
    keeps its own [State.t] (registers, PSR/mode/world, MMU base
    registers, TLB, user PC, fault address, cycles, interrupt budget)
    whose memory is never read; {!Memory.t} is shared. [view] assembles
    a single-core [State.t] for one CPU so the unmodified monitor runs
    against it; [commit_bank] publishes the per-CPU half of a resulting
    state, while memory effects are published page-by-page by the
    stepper's commit phase. *)

type t

val create : cpus:int -> State.t -> t
(** Boot an N-core machine from a single-core state: every CPU starts
    with a copy of the boot state; memory is shared.
    @raise Invalid_argument when [cpus < 1]. *)

val view : t -> int -> State.t
(** The full architectural state CPU [c] observes (its state + shared
    memory). @raise Invalid_argument on an unknown CPU. *)

val commit_bank : t -> int -> State.t -> t
(** Publish CPU [c]'s state from a resulting state; the state's memory
    is deliberately ignored. *)

val set_mem : t -> Memory.t -> t
val charge : t -> int -> int -> t
(** [charge t c n] adds [n] cycles to CPU [c]. *)
