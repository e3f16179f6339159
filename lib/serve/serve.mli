(** The serve campaign: attestation-as-a-service over recycled enclave
    pools, sharded across campaign domains.

    Sessions are partitioned into fixed-size shards (the shard count is
    a pure function of the session count, never of [-j]); each shard
    runs the {!Engine} in its own world, seeded from
    [(root seed, shard index)], and shard reports fold through the
    order-insensitive {!Report} merge. The resulting report — and the
    stdout rendering — is byte-identical at [-j 1] and [-j N]. *)

module Progress = Komodo_campaign.Progress

type cfg = {
  sessions : int;  (** total sessions across all shards *)
  shard_sessions : int;  (** sessions per shard (last shard takes the rest) *)
  slots : int;  (** pool slots per shard *)
  recycle : int;  (** recycle period; 0 = never *)
  queue : int;  (** admission queue capacity per shard *)
  policy : Backpressure.policy;
  mode : Workload.mode;
  gap : int;  (** open-loop mean inter-arrival gap, model cycles *)
  everify : int;  (** route every Nth session in-enclave; 0 = never *)
  npages : int;  (** secure pages per shard world *)
}

val defaults : cfg
(** 100k sessions, 4096-session shards, 4 slots, recycle 64, queue 64,
    drop policy, Poisson arrivals at a 12500-cycle mean gap (~80%
    utilisation), in-enclave re-verify every 32nd session. *)

val default_shard_sessions : int

val shards : sessions:int -> shard_sessions:int -> int
(** @raise Invalid_argument on non-positive inputs. *)

val shard_seed : root:int -> int -> int

val min_pages : int
(** The smallest shard world: the verifier enclave plus one notary
    slot. *)

val run :
  ?progress:Progress.t -> ?jobs:int -> cfg:cfg -> seed:int -> unit -> Report.t
(** Run the campaign on a domain pool. [jobs] and [progress] cannot
    change a byte of the report.
    @raise Engine.Violation (via the pool's trial-error wrapper) if a
    shard breaks a monitor invariant. *)
