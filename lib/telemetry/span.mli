(** Hierarchical span profiler: monitor call -> validate/commit phase
    -> hash / page-table walk / exec, attributed in modelled cycles
    (deterministic) and wallclock nanoseconds (only when a [clock] is
    injected; 0 otherwise, keeping recorded trees pure functions of
    the instrumented execution).

    [Null] mirrors {!Sink.Null}: a distinguished constructor so every
    instrumentation site is one {!is_null} branch when profiling is
    off — no allocation, no modelled cycles, bit-identical cycle
    reports. *)

type clock = unit -> float
(** Wallclock source in seconds (e.g. [Unix.gettimeofday]); kept
    abstract so the telemetry library needs no unix dependency. *)

type node = {
  sp_name : string;
  sp_start : int;  (** cycle counter at entry *)
  sp_cycles : int;  (** modelled-cycle delta across the span *)
  sp_wall_ns : int;  (** 0 without a clock *)
  sp_children : node list;  (** execution order *)
}

type recorder

val null : recorder
val create : ?clock:clock -> unit -> recorder
val is_null : recorder -> bool

val enter : recorder -> name:string -> cycles:int -> unit
val exit_ : recorder -> cycles:int -> unit
(** Close the innermost open span (no-op on an empty stack). *)

val depth : recorder -> int
(** Open-frame count; snapshot on handler entry, restore with
    {!exit_to} — robust across error-path unwinds. *)

val exit_to : recorder -> depth:int -> cycles:int -> unit

val mark : recorder -> name:string -> cycles:int -> unit
(** Close the current span and open a same-depth sibling: the
    validate-to-commit transition. *)

val roots : recorder -> node list
(** Completed top-level spans in execution order (open frames are not
    included). *)

val reset : recorder -> unit

(* Readout *)

val total_spans : node list -> int
val self_cycles : node -> int
(** A span's cycles minus its children's (clamped at 0). *)

val fold_stacks : node list -> (string * int) list
(** Flamegraph-folded: [("a;b;c", self_cycles)] per distinct path,
    path-sorted, zero-self paths dropped. *)

val to_folded : node list -> string
(** {!fold_stacks} as one ["path cycles\n"] line per entry. *)

type agg = {
  a_name : string;
  a_count : int;
  a_cycles : int;
  a_wall_ns : int;
  a_children : agg list;
}

val aggregate : node list -> agg list
(** Merge same-named siblings recursively (counts and attributions
    sum), children name-sorted — the canonical deterministic tree. *)

val render_tree : ?wall:bool -> agg list -> string
(** One line per aggregated span with count and cycles; [wall] adds a
    wallclock column (excluded by default so output is deterministic). *)

val durations : node list -> (string * Hist.t) list
(** Per-name cycle histograms over every occurrence, name-sorted. *)
