(* The serve campaign report: per-shard results and their
   order-insensitive reduction.

   The contract mirrors {!Komodo_campaign.Agg}: every field is a sum, a
   max, or a histogram multiset, so shard reports merge to the same
   aggregate whatever order the domains finished in, and the rendered
   report is byte-identical at any `-j`. Latency is model cycles only —
   wallclock never appears here (sessions/sec lives in progress
   snapshots and perfbench's serve workload). *)

module Hist = Komodo_telemetry.Hist
module Json = Komodo_telemetry.Json

type t = {
  mutable shards : int;
  mutable offered : int;  (** sessions that arrived (served + shed) *)
  mutable served : int;
  mutable verify_failures : int;
      (** genuine MAC rejected, tampered MAC accepted, enclave verifier
          disagreed, or an Enter failed — any is a serving bug *)
  mutable enclave_verified : int;  (** sessions re-checked in-enclave *)
  mutable shed_full : int;
  mutable shed_deadline : int;
  mutable queue_peak : int;  (** max queue depth over all shards *)
  mutable pool_slots : int;  (** slots per shard (post-clamp) *)
  mutable pool_requested : int;
  mutable warm : int;
  mutable cold : int;
  mutable rebuilds : int;
  mutable churn_cycles : int;
  mutable busy_cycles : int;  (** slot-busy model cycles, all shards *)
  mutable capacity_cycles : int;  (** slots x makespan, summed over shards *)
  mutable makespan : int;  (** max shard makespan, model cycles *)
  h_enter : Hist.t;  (** notary Enter crossing *)
  h_attest : Hist.t;  (** full service: churn + enter + verify *)
  h_wait : Hist.t;  (** admission-queue wait *)
  h_sojourn : Hist.t;  (** wait + service *)
}

let create () =
  {
    shards = 0;
    offered = 0;
    served = 0;
    verify_failures = 0;
    enclave_verified = 0;
    shed_full = 0;
    shed_deadline = 0;
    queue_peak = 0;
    pool_slots = 0;
    pool_requested = 0;
    warm = 0;
    cold = 0;
    rebuilds = 0;
    churn_cycles = 0;
    busy_cycles = 0;
    capacity_cycles = 0;
    makespan = 0;
    h_enter = Hist.create ();
    h_attest = Hist.create ();
    h_wait = Hist.create ();
    h_sojourn = Hist.create ();
  }

let shed t = t.shed_full + t.shed_deadline

let hit_rate t =
  let total = t.warm + t.cold in
  if total = 0 then 1.0 else float_of_int t.warm /. float_of_int total

let utilization t =
  if t.capacity_cycles = 0 then 0.0
  else float_of_int t.busy_cycles /. float_of_int t.capacity_cycles

(** Fold [src] (typically a one-shard report) into [dst]. Commutative
    and associative up to the fields' own merge laws (sums, maxes,
    histogram merges), so any merge order yields the same report. *)
let merge_into dst src =
  dst.shards <- dst.shards + src.shards;
  dst.offered <- dst.offered + src.offered;
  dst.served <- dst.served + src.served;
  dst.verify_failures <- dst.verify_failures + src.verify_failures;
  dst.enclave_verified <- dst.enclave_verified + src.enclave_verified;
  dst.shed_full <- dst.shed_full + src.shed_full;
  dst.shed_deadline <- dst.shed_deadline + src.shed_deadline;
  dst.queue_peak <- max dst.queue_peak src.queue_peak;
  dst.pool_slots <- max dst.pool_slots src.pool_slots;
  dst.pool_requested <- max dst.pool_requested src.pool_requested;
  dst.warm <- dst.warm + src.warm;
  dst.cold <- dst.cold + src.cold;
  dst.rebuilds <- dst.rebuilds + src.rebuilds;
  dst.churn_cycles <- dst.churn_cycles + src.churn_cycles;
  dst.busy_cycles <- dst.busy_cycles + src.busy_cycles;
  dst.capacity_cycles <- dst.capacity_cycles + src.capacity_cycles;
  dst.makespan <- max dst.makespan src.makespan;
  Hist.merge_into dst.h_enter src.h_enter;
  Hist.merge_into dst.h_attest src.h_attest;
  Hist.merge_into dst.h_wait src.h_wait;
  Hist.merge_into dst.h_sojourn src.h_sojourn

let merge reports =
  let t = create () in
  Array.iter (fun r -> merge_into t r) reports;
  t

(* -- Rendering ----------------------------------------------------------- *)

let pct f = Printf.sprintf "%.2f%%" (100.0 *. f)

let lat_line name h =
  Printf.sprintf "  %-8s p50 %8d  p90 %8d  p99 %8d  max %8d  (n=%d)" name
    (Hist.p50 h) (Hist.p90 h) (Hist.p99 h) (Hist.max_value h) (Hist.count h)

(** The deterministic stdout report — every number is a pure function
    of (sessions, seed, flags). *)
let render t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%d sessions offered over %d shard(s): %d served, %d shed" t.offered
    t.shards t.served (shed t);
  line "  shed: %d queue-full, %d past-deadline; peak queue depth %d"
    t.shed_full t.shed_deadline t.queue_peak;
  line "  pool: %d slot(s)/shard (requested %d), hit rate %s (%d warm, %d cold, %d rebuilds)"
    t.pool_slots t.pool_requested (pct (hit_rate t)) t.warm t.cold t.rebuilds;
  line "  utilization %s; churn %d cycles; worst shard makespan %d cycles"
    (pct (utilization t)) t.churn_cycles t.makespan;
  line "latency (model cycles):";
  line "%s" (lat_line "enter" t.h_enter);
  line "%s" (lat_line "attest" t.h_attest);
  line "%s" (lat_line "wait" t.h_wait);
  line "%s" (lat_line "sojourn" t.h_sojourn);
  line "verification: %d MAC(s) checked, %d re-verified in-enclave, %d failure(s)"
    t.served t.enclave_verified t.verify_failures;
  Buffer.contents b

let quantiles name h =
  ( name,
    Json.Obj
      [
        ("count", Json.Int (Hist.count h));
        ("p50", Json.Int (Hist.p50 h));
        ("p90", Json.Int (Hist.p90 h));
        ("p99", Json.Int (Hist.p99 h));
        ("p999", Json.Int (Hist.p999 h));
        ("max", Json.Int (Hist.max_value h));
      ] )

let schema = "komodo-serve/1"

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("shards", Json.Int t.shards);
      ("offered", Json.Int t.offered);
      ("served", Json.Int t.served);
      ("shed_full", Json.Int t.shed_full);
      ("shed_deadline", Json.Int t.shed_deadline);
      ("queue_peak", Json.Int t.queue_peak);
      ("pool_slots", Json.Int t.pool_slots);
      ("pool_requested", Json.Int t.pool_requested);
      ("warm", Json.Int t.warm);
      ("cold", Json.Int t.cold);
      ("rebuilds", Json.Int t.rebuilds);
      ("hit_rate_pct", Json.Str (pct (hit_rate t)));
      ("churn_cycles", Json.Int t.churn_cycles);
      ("busy_cycles", Json.Int t.busy_cycles);
      ("capacity_cycles", Json.Int t.capacity_cycles);
      ("makespan_cycles", Json.Int t.makespan);
      ("utilization_pct", Json.Str (pct (utilization t)));
      ("enclave_verified", Json.Int t.enclave_verified);
      ("verify_failures", Json.Int t.verify_failures);
      ( "latency",
        Json.Obj
          [
            quantiles "enter" t.h_enter;
            quantiles "attest" t.h_attest;
            quantiles "wait" t.h_wait;
            quantiles "sojourn" t.h_sojourn;
          ] );
    ]
