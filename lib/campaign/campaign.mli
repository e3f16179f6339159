(** The campaign engine: one {!Make} for every seeded-trial campaign
    ([komodo check], [fault], [vault], [smp]), plus the exhaustive
    explorer's level loop.

    A campaign of [trials] trials under root seed [seed] is the same
    mathematical object at any [jobs]: trial [i] runs on seed
    [trial_seed ~root:seed i], the report covers trials [0..k] where
    [k] is the lowest failing index, and the driver's reduction is
    order-insensitive. [jobs] only chooses how many domains race
    through the index queue — `-j 1` and `-j N` emit byte-identical
    reports.

    On failure, higher-index trials are cancelled ({!Pool}), and the
    lowest failing trial is shrunk once, serially, on the calling
    domain. *)

module Json = Komodo_telemetry.Json

(** What a campaign kind supplies. {!Komodo_spec.Diff} (check),
    {!Komodo_fault.Drive} (fault), {!Komodo_fault.Vaultdrive} (vault)
    and {!Komodo_fault.Smpdrive} (smp) each meet it as they stand. *)
module type DRIVER = sig
  val kind : string
  (** The subcommand, and the ["kind"] of the driver's traces. *)

  type config
  (** Everything a trial needs besides its seed. *)

  type op
  type failure
  type trial
  type outcome

  val validate : config -> (unit, string) result
  (** Reject a config no trial can run on (too few pages for the
      driver's prelude, a negative op count, no CPUs). *)

  val run_trial : config -> seed:int -> trial
  (** One trial, a pure function of its seed. *)

  val failed : trial -> bool

  val shrink : config -> seed:int -> (op list * failure) option
  (** Re-run a trial and shrink its failure to a 1-minimal op list;
      [None] if it does not fail. *)

  val reduce : trial list -> (int * op list * failure) option -> outcome
  (** The report over trials [0..k] in index order; the option carries
      the failing trial's seed and shrunk ops. *)

  val counters : trial -> (string * int) list
  (** Per-trial progress counters, summed by name into
      {!Progress} snapshots. *)

  val header : config -> (string * Json.t) list
  (** The config's trace-header fields (page count, armed bug, ...). *)

  val of_header : Json.t -> (config, string) result
  (** Rebuild a replay config from a trace header. *)

  val op_to_json : op -> Json.t
  val op_of_json : config -> Json.t -> (op, string) result
  (** Decode one op, range-checking every field a replay would trip
      over against the config. *)
end

module Make (D : DRIVER) : sig
  val run :
    ?progress:Progress.t -> ?jobs:int -> D.config -> trials:int -> seed:int ->
    D.outcome
  (** Run a campaign. [progress] observes each finished trial; it never
      changes the report. [jobs] defaults to {!default_jobs} (values
      [<= 0] also mean the default).
      @raise Pool.Trial_error if a trial raises, naming the lowest
      raising trial and its seed.
      @raise Failure if a failure does not reproduce when its trial is
      re-run for shrinking (a determinism bug). *)

  val to_trace : seed:int -> D.config -> D.op list -> string list
  (** A shrunk failure as a {!Trace} file. *)

  val of_trace : string list -> (int * D.config * D.op list, string) result
  (** Read a trace of this kind: its seed, the header's config (held to
      {!DRIVER.validate}) and the decoded ops. Never raises. *)
end

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1 — the `-j`
    default. *)

val trial_seed : root:int -> int -> int
(** The seed trial [index] runs on under [root] (the
    {!Komodo_rand.Seedsplit} derivation; exposed so reports and replays
    can name it). *)

val check :
  ?mutate:Komodo_spec.Aspec.mutation ->
  ?npages:int ->
  ?ops_per_trial:int ->
  ?metrics:bool ->
  ?profile:bool ->
  ?clock:Komodo_telemetry.Span.clock ->
  ?progress:Progress.t ->
  ?jobs:int ->
  trials:int ->
  seed:int ->
  unit ->
  Komodo_spec.Diff.outcome
(** The differential refinement campaign: {!Make} over
    {!Komodo_spec.Diff} with {!Komodo_spec.Diff.default} for every
    omitted field. *)

val fault :
  ?npages:int ->
  ?ops_per_trial:int ->
  ?profile:bool ->
  ?clock:Komodo_telemetry.Span.clock ->
  ?progress:Progress.t ->
  ?bug:Komodo_core.Monitor.bug ->
  ?jobs:int ->
  faults:Komodo_fault.Drive.fault_class list ->
  trials:int ->
  seed:int ->
  unit ->
  Komodo_fault.Drive.outcome
(** The fault-injection campaign: {!Make} over {!Komodo_fault.Drive}. *)

val explore_trace :
  Komodo_spec.Explore.config -> Komodo_spec.Explore.violation -> string list
(** An explore counterexample as a {!Trace} file of kind ["explore"]:
    the header holds the world's page count and [mutate] (read back on
    replay) and the violation's depth and reason (for the reader); the
    ops are its full path from boot, prelude included. *)

val replay_explore_trace :
  string list -> (Komodo_spec.Explore.replayed, string) result
(** Read an ["explore"] trace and replay it in differential lockstep
    ({!Komodo_spec.Explore.replay}). Never raises on malformed input. *)

val explore :
  ?progress:Progress.t ->
  ?jobs:int ->
  config:Komodo_spec.Explore.config ->
  unit ->
  Komodo_spec.Explore.report
(** The bounded exhaustive search (`komodo explore`): BFS levels over
    {!Komodo_spec.Explore.expand_range}, each level's frontier sharded
    across the pool in fixed slices. Shards are pure up to the
    read-only visited set and merged in slice order ({!Agg.explore}),
    so states, edges, coverage and any counterexample are byte-identical
    at any [jobs]. On a violation the recorded BFS parent chain (a
    shortest path) is completed with the violating op and the prelude
    prepended; deeper levels are not explored.
    @raise Invalid_argument if the config is out of range
    (fewer than {!Komodo_spec.Explore.min_pages} pages, negative
    depth). *)
