(** Deterministic merges shared by the campaign engine's loops: the
    explorer's per-level shard merge and a coverage merge. A seeded
    campaign's trials reduce through their driver
    ({!Campaign.DRIVER.reduce}). Every merge is order-insensitive or
    runs in slice order, so a parallel run's report is byte-identical
    to the sequential one. *)

module Cover = Komodo_spec.Cover
module Explore = Komodo_spec.Explore

val covers : Cover.t list -> Cover.t
(** Merge per-trial coverage tables into a fresh one. *)

(** One merged BFS level of the exhaustive explorer. *)
type explore_level = {
  el_edges : int;  (** edges checked across the level's shards *)
  el_new : (string * Explore.snode * int * Explore.xop) list;
      (** newly discovered states, deduplicated across shards
          first-writer-wins in shard order *)
  el_cover : Cover.t;
  el_violation : (int * Explore.xop * string) option;
      (** the lowest failing shard's violation, if any *)
}

val explore : Explore.shard list -> explore_level
(** Merge one level's shards (the pool's completed prefix, plus the
    lowest failing shard if the level stopped), in slice order. *)
