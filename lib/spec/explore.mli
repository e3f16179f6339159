(** Bounded exhaustive model checking of the monitor lifecycle.

    Random campaigns ([Diff], the fault injector) {e sample} the SMC/SVC
    interleaving space; this module {e enumerates} it. Starting from a
    small world (a booted platform plus a five-call prelude that builds
    the probe enclave mid-construction), a breadth-first search applies
    every op of a finite, world-covering alphabet to every reachable
    abstract state ({!Astate}) up to a depth bound, deduplicating states
    by their canonical serialisation ({!Ahash}) and checking on every
    edge:

    - {b exact error priorities}: an independent restatement of every
      Table 1 precondition chain predicts the error word and return
      value, and any disagreement with {!Aspec.step_smc} is a violation;
    - {b PageDB invariants}: refcounts equal owned-page counts, page
      tables of live address spaces are well-formed and alias-free,
      lifecycle states match transcript forms;
    - {b measurement monotonicity}: transcripts only ever absorb more
      blocks, finalised digests never change, and [Finalise] produces
      exactly the finalisation of the in-progress context;
    - {b declassification}: a successful [MapSecure]/[MapInsecure] only
      ever read page-aligned, genuinely-insecure memory — never the
      monitor image or the secure region;
    - {b error framing}: a failing call returns [r1 = 0] and leaves the
      abstract state untouched.

    Enter/Resume of an enclave the spec cannot predict (any thread but
    the live probe) is explored as a three-way branch over the legal
    outcomes (exit / interrupted / fault) via forced edges.

    The search is seed-independent: [seed] only names the concrete world
    a counterexample trace replays against. Exploration is sharded over
    a frontier (see {!expand_range}) so the campaign engine can run
    levels on a domain pool with byte-identical results at any [-j].

    The depth bound is the soundness caveat: a clean report certifies
    the checked properties only for op sequences of at most [depth]
    calls beyond the prelude (and, for worlds above 10 pages, only for
    the symmetry-reduced page-argument pool). *)

type config = {
  pages : int;  (** secure pages in the world; at least {!min_pages} *)
  depth : int;  (** BFS bound, in ops beyond the prelude *)
  seed : int;  (** concrete-replay seed (the search itself is seedless) *)
  mutate : Aspec.mutation option;  (** explore a deliberately-wrong spec *)
}

val min_pages : int
(** 6 — the prelude occupies pages 0-5. *)

val n_prelude : int
(** Number of prelude ops (5). *)

(** One explored op: an SMC with, for an opaque Enter/Resume, the forced
    outcome branch this edge takes. *)
type xop = {
  call : int;
  args : int list;
  forced : [ `Exit | `Interrupted | `Fault ] option;
}

val pp_xop : xop -> string

(** A search node: the abstract state plus the probe-predictability
    latch, which is semantically part of the explored state (it decides
    whether Enter of the probe thread is predicted or branched). *)
type snode = { st : Astate.t; probe_ok : bool }

val node_key : snode -> string
(** Canonical dedup key: a probe-latch byte prepended to {!Ahash.key}. *)

val node_hash : snode -> string
(** 16 hex digits of the FNV-1a hash of {!node_key} (display only). *)

type violation = {
  v_prelude : bool;  (** the prelude itself violated (mutated specs) *)
  v_depth : int;  (** ops beyond the prelude on the path (0 if prelude) *)
  v_reason : string;
  v_ops : xop list;  (** complete shortest path from boot, prelude included *)
}

val render_violation : violation -> string list

type world

val make_world : config -> world
(** Boot [Astate] and run the prelude through the same checked-edge
    pipeline as the search. A prelude violation (possible under
    [mutate]) is recorded in {!prelude_violation}, not raised.
    @raise Invalid_argument if [pages < min_pages] or [depth < 0]. *)

val config_of : world -> config
val root : world -> snode
val prelude_xops : world -> xop list
val prelude_edges : world -> int
(** Edges checked while running the prelude. *)

val prelude_cover : world -> Cover.t
val prelude_violation : world -> violation option

val alphabet : world -> snode -> xop list
(** The finite op alphabet applied to a node: every Table 1 call over a
    page-argument pool (all pages plus one out-of-range representative
    for worlds of at most 10 pages; a symmetry-reduced pool — all
    non-free pages, the two lowest free pages, one out-of-range — for
    larger worlds), mapping/content pools covering every validity
    class, probe-SVC argument pools mirroring the differential
    checker's, and three forced-outcome branches wherever the oracle
    says the enclave run is opaque. Deterministic per node. *)

(** The result of exhausting one frontier slice (see {!expand_range}):
    everything the merge step needs, in deterministic order. *)
type shard = {
  sh_edges : int;  (** edges checked (up to and including a violation) *)
  sh_new : (string * snode * int * xop) list;
      (** discovered states not in [visited] at shard start, as
          (key, node, parent frontier index, op), discovery order;
          may still collide across shards — the merge dedups *)
  sh_cover : Cover.t;
  sh_violation : (int * xop * string) option;
      (** (parent frontier index, op, reason) of the first violation in
          slice order; the shard stops there *)
}

val expand_range :
  world ->
  visited:(string -> bool) ->
  frontier:snode array ->
  lo:int ->
  hi:int ->
  shard
(** Apply the full alphabet to frontier nodes [lo..hi-1] in order.
    [visited] is a read-only membership test of all states known before
    this level (shared across shards — no shard writes it). Pure up to
    [visited], so any shard partition at any [-j] merges to the same
    level. *)

(** A whole-search report, assembled by the campaign engine's level
    loop with sequential semantics (identical at any [-j]). *)
type report = {
  x_states : int;  (** distinct states, the root included *)
  x_edges : int;  (** edges checked, the prelude's included *)
  x_levels : int list;  (** new states discovered per depth level *)
  x_cover : Cover.t;  (** prelude + search coverage *)
  x_violation : violation option;
}

(** {2 Counterexample traces}

    A violation's shortest path is saved as a ["komodo-trace/1"] file
    of kind ["explore"] and replayed through the differential checker
    ({!Diff.apply_op}) against a freshly booted concrete world, so every
    abstract counterexample is cross-validated against the machine:
    under the same [mutate] the divergence must reproduce. *)

val op_to_json : xop -> Komodo_telemetry.Json.t
(** {!Diff.op_to_json} of the SMC, plus an informational ["forced"]
    outcome marker (replays decode ops with {!Diff.op_of_json}). *)

type replayed =
  | Clean of int  (** all ops matched; op count *)
  | Diverged of Diff.divergence

val replay : seed:int -> Diff.config -> Diff.op list -> replayed
(** Boot [Os] from [seed] and the config's page count, stage the probe
    image, run every op in differential lockstep (under the config's
    [mutate], so a mutation counterexample must diverge), zeroing the
    staging window after the {!n_prelude} prelude ops exactly as the
    explorer's abstract contents oracle assumes. *)
