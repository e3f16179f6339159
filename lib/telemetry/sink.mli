(** Pluggable event sinks. [Null] is a distinguished constructor so
    instrumentation sites can test {!is_null} with one branch and skip
    building events entirely — telemetry off costs one comparison and
    zero allocation, and charges no modelled cycles. *)

type t = Null | Emit of { emit : Event.stamped -> unit; flush : unit -> unit }

val null : t
val is_null : t -> bool
val emit : t -> Event.stamped -> unit

val flush : t -> unit
(** Drain any buffering behind the sink (a no-op for unbuffered
    backends). Called at quiesce points — [Os.teardown], campaign
    completion — so JSONL traces are complete on disk. *)

val make : ?flush:(unit -> unit) -> (Event.stamped -> unit) -> t

val fanout : t list -> t
(** Send every event to each sink; [Null]s are dropped, and an
    all-[Null] list collapses back to [Null]. Flushing the fanout
    flushes every member. *)

val collect : unit -> t * (unit -> Event.stamped list)
(** Accumulate every event; the closure returns them in order. *)

val jsonl : out_channel -> t
(** Stream events as JSONL, one event per line; {!flush} drains the
    channel (caller closes). *)

val console : Format.formatter -> t
(** Human-readable event lines. *)

