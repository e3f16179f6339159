(** The differential refinement checker.

    Builds a world (booted platform plus a *probe* enclave whose
    behaviour the spec predicts exactly, a workload enclave with
    exit/fault/spin threads, and an unfinalised enclave mid
    construction), generates adversarial OS call sequences biased
    toward lifecycle edges, aliased page numbers, interrupt injection
    mid-Enter and the §8.2/§9.1 attack shapes, and steps the abstract
    spec ({!Aspec}) and the real monitor in lockstep, checking after
    every call that

    {v abs (impl_step s c)  =  spec_step (abs s) c v}

    including the returned error code and r1 value. Any divergence is
    shrunk to a minimal op trace by greedy deletion. The prelude that
    builds the world runs through the same checked lockstep pipeline,
    so construction-call coverage is free and exact. *)

type op =
  | Smc of { call : int; args : int list; budget : int option }
      (** one monitor call; [budget] arms the interrupt source before
          the crossing (None leaves interrupts off) *)
  | Write_ins of { addr : int; value : int }
      (** an OS store to insecure memory between calls *)

val pp_op : op -> string

type divergence = { index : int; op : op; reason : string }

val pp_divergence : divergence -> string

type world
(** A built post-prelude world; reusable as the fixed starting point of
    any number of op-sequence runs (generation, shrinking, replay). *)

type rstate = {
  os : Komodo_os.Os.t;  (** the concrete system *)
  spec : Astate.t;  (** the abstract state tracked in lockstep *)
  probe_ok : bool;
      (** latches false permanently once the probe enclave's shape is
          broken; later runs treat the probe as opaque *)
  abs_cache : Abs.cache;
      (** decoded page-table memo for the post-op abstraction; validated
          by memory-chunk identity, so any stepping order may share it *)
}
(** One side-by-side lockstep state, exposed so external drivers (the
    fault injector) can step ops with {!apply_op} and interleave their
    own checks. *)

val initial_rstate : world -> rstate

val make_world :
  ?mutate:Aspec.mutation ->
  ?npages:int ->
  ?sink:Komodo_telemetry.Sink.t ->
  ?spans:Komodo_telemetry.Span.recorder ->
  seed:int ->
  unit ->
  world
(** Boot and build the three prelude enclaves through the checked
    lockstep pipeline. The prelude always runs against the unmutated
    spec — a [mutate] flag applies to the generated phase only.
    [sink] attaches a telemetry sink to the booted monitor (a metrics
    registry, when the campaign engine is asked to collect one);
    [spans] attaches a span recorder, profiling the prelude and every
    subsequent op through this world.

    Without [sink] or [spans] the prelude runs once per page count per
    domain, into a template, and each call returns a fork of it: the
    template's machine state, PageDB and abstract state, with [seed]'s
    boot secret and RNG, a fresh executor and a copy of the template's
    coverage. A fork equals a fresh build at the same seed. With either
    the world is built fresh, so the observer sees the prelude.
    @raise Failure if the prelude itself diverges. *)

val world_cover : world -> Cover.t
(** Coverage recorded while building the prelude. Each world has its
    own table: recording into it touches no other world. *)

val probe_thread : world -> int
(** The probe enclave's thread page. *)

val probe_shape : Astate.t -> bool
(** Whether the prelude's probe enclave is still intact in an abstract
    state: addrspace 0 final with its original first-level table, and
    page 5 the original idle thread. This is the exact predicate behind
    the [probe_ok] latch — exposed so the exhaustive explorer
    ({!Explore}) latches identically and its traces replay through this
    checker without spurious probe-opacity divergences. *)

val apply_op :
  ?mutate:Aspec.mutation ->
  ?cover:Cover.t ->
  ?opaque_contents:bool ->
  ?opaque_probe:bool ->
  ?rng_exhausted:bool ->
  rstate ->
  int ->
  op ->
  (rstate, divergence) result
(** One lockstep step: run [op] against the implementation and the spec
    and compare. [opaque_contents] forces the MapSecure contents oracle
    to opaque (a fault driver mutating insecure memory mid-call cannot
    know what the handler will read). [opaque_probe] treats a probe
    Enter as an opaque enclave run (instruction-level injection makes
    its outcome unpredictable). [rng_exhausted] overrides the entropy
    oracle, which defaults to the implementation's pre-call budget. *)

val gen_ops : world -> seed:int -> n:int -> op list
(** Generate an adversarial op sequence. Generation is coverage-guided
    at the trial level: the profile rotates with the seed, and SVC
    probes cycle through every call number. *)

val run_ops : ?cover:Cover.t -> world -> op list -> (int, divergence) result
(** Run an op sequence from the world's initial state in lockstep;
    [Ok n] means all [n] ops matched, [Error d] is the first
    divergence. *)

val shrink_seq :
  run:('op list -> ('ok, 'bad) result) ->
  index:('bad -> int) ->
  'op list ->
  ('op list * 'bad) option
(** Generic greedy 1-minimal shrinker: truncate at the first failure
    ([index] extracts its position), then repeatedly drop single ops
    while the remainder still fails. [None] if [run ops] does not
    fail. *)

(** {2 The campaign driver}

    One differential trial is a pure function of its seed: build a
    world, generate an adversarial sequence, step it in lockstep. This
    module meets [Komodo_campaign.Campaign.DRIVER]; the campaign loop
    (seed derivation, domain pool, shrinking the lowest failing trial)
    lives there. *)

val kind : string
(** ["check"]. *)

type config = {
  mutate : Aspec.mutation option;  (** run against a broken spec *)
  npages : int;  (** secure pages per trial world *)
  ops_per_trial : int;
  metrics : bool;  (** collect a per-trial telemetry registry *)
  profile : bool;  (** record per-trial span trees *)
  clock : Komodo_telemetry.Span.clock option;
      (** wallclock for profiles; without it a profile is a pure
          function of the seed, so it diffs identically across [-j] *)
}

val default : config
(** 40 pages, 40 ops, no mutation, metrics or profile. *)

val check_npages : min:int -> why:string -> int -> (unit, string) result
(** A campaign world's page count: at least [min] (a driver's prelude
    needs, explained by [why]) and no more than the platform allows. *)

val validate : config -> (unit, string) result
(** {!check_npages} from 20 pages (the prelude builds its enclaves on
    pages 0-19), and a non-negative op count. *)

type failure = divergence

type trial = {
  t_ops_run : int;
      (** generated ops that matched (the divergent op excluded) *)
  t_cover : Cover.t;  (** prelude + generated-phase coverage *)
  t_metrics : Komodo_telemetry.Metrics.t option;
      (** per-trial telemetry registry, when requested *)
  t_spans : Komodo_telemetry.Span.node list;
      (** per-trial profile spans ([[]] unless profiling) *)
  t_divergence : divergence option;
}

val run_trial : config -> seed:int -> trial
(** One differential trial, deterministically from [seed]. No
    shrinking: a campaign shrinks only its lowest failing trial. *)

val failed : trial -> bool

val shrink : config -> seed:int -> (op list * divergence) option
(** Regenerate trial [seed] and shrink its divergence to a 1-minimal
    trace: truncate at the first divergence, then greedily delete ops
    while the remainder still diverges. [None] if the trial does not
    diverge. *)

val counters : trial -> (string * int) list
(** [["ops", t_ops_run]]. *)

type outcome = {
  trials_run : int;
  ops_run : int;
  divergence : (int * op list * divergence) option;
      (** trial seed, shrunk ops, divergence *)
  cover : Cover.t;
  metrics : Komodo_telemetry.Metrics.t option;
      (** merged per-trial registries, when collected *)
  spans : Komodo_telemetry.Span.node list;
      (** per-trial span trees concatenated in trial-index order ([[]]
          unless profiling) *)
}
(** A whole-campaign report over trials [0..k], [k] the lowest failing
    index (or all trials), regardless of how many domains ran it. *)

val reduce : trial list -> (int * op list * divergence) option -> outcome
(** Coverage and metrics merge order-insensitively, op counts sum,
    spans concatenate in index order. *)

val header : config -> (string * Komodo_telemetry.Json.t) list
(** Trace-header fields: ["npages"] and ["mutate"]. *)

val of_header : Komodo_telemetry.Json.t -> (config, string) result

val op_to_json : op -> Komodo_telemetry.Json.t
(** [{"call","args","budget"}] or [{"write_ins":{"addr","value"}}]. *)

val op_of_json : config -> Komodo_telemetry.Json.t -> (op, string) result
(** Rejects an unaligned store ({!word_addr}) and an over-long SMC
    ({!smc_of_json}). *)

val word_addr : string -> Komodo_telemetry.Json.t -> (int, string) result
(** Member [name] as a store address: it must be word-aligned, since
    memory holds words and a ragged store raises. *)

val smc_of_json : Komodo_telemetry.Json.t -> (int * int list, string) result
(** An object's ["call"] and ["args"]: the call ABI passes at most four
    arguments (r1-r4). *)
