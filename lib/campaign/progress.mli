(** Streaming campaign observability.

    A reporter fed from {!Pool}'s [on_trial] hook: each completed trial
    updates shared counters (trials/sec, failures, and the campaign
    driver's own per-trial counters such as ops, injections or lock
    spins) under a mutex, and periodic snapshots go to a live
    [\r]-rewritten stderr line and/or a JSONL mirror, one
    ["komodo-progress/1"] object per line.

    The reporter only observes: it never influences trial content or
    the campaign report, so `-j 1` / `-j N` stdout stays byte-identical
    with progress on. The clock is injected (no unix dependency here);
    wallclock-derived fields exist only inside snapshots. *)

val schema : string
(** The snapshot schema tag, ["komodo-progress/1"]. *)

type t

val create :
  ?interval:float ->
  ?live:bool ->
  ?jsonl:out_channel ->
  now:(unit -> float) ->
  label:string ->
  total:int ->
  unit ->
  t
(** [interval] is the minimum seconds between emitted snapshots
    (default 0.5; 0 emits one per trial); [live] renders the stderr
    line; [jsonl] mirrors snapshots to a channel (flushed on
    {!finish}). [now] supplies wallclock seconds. *)

val trial :
  t -> ?hists:(string * Komodo_telemetry.Hist.t) list -> failed:bool ->
  (string * int) list -> unit
(** Fold one finished unit (a campaign trial, a serve shard, an explore
    level) in: its counters are summed by name and its histograms
    merged by name (first-seen order) into the snapshot's top level —
    a histogram as [<name>_p50] and [<name>_p99] — and the live line.
    Thread-safe, made to be called from [Pool.run ~on_trial]; reads the
    clock exactly once. *)

val finish : t -> unit
(** Emit a final snapshot unconditionally, terminate the live line,
    flush the JSONL channel. *)

val snapshots : t -> int
(** Snapshots emitted so far (tests). *)
