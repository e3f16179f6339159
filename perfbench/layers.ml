(* Per-layer timers for the traced pass.

   Every timer wraps a call into one layer's public functions from the
   benchmark's own code. Two kinds exist:

   - named timers ([make_world], [gen], [apply], [run_fops], [fgen],
     [world], [expand], [merge], [shard]) time the calls that make up a
     traced unit;
   - estimate timers ([crossing], [smc], [write], [aspec], [abs],
     [compare], [pagedb], [atomic], [reboot], [alphabet], [key], [node],
     [serve_world], [service], [session], [verify], [everify]) time an
     isolated re-call of a layer that the program only reaches inside
     another public call, on the same state. Their time is excluded
     from the traced wall time and reported as an estimate.

   Four named timers are wrappers: [apply], [run_fops], [expand] and
   [shard] enclose the estimated layers. The coverage counts a
   wrapper by the estimated layers inside it ([inner_secs]), not by
   its own time, so it falls when the estimates explain less of the
   wrapper and rises above 1 when they claim more than it took. It is
   taken per traced unit, and the median over units is reported, so a
   burst of host load that hits a few units does not move it. *)

open Util

type acc = {
  mutable calls : int;
  mutable secs : float;
  mutable kcycles : float;  (** modelled kcycles, where the layer has them *)
  samples : Samples.t;  (** per-call seconds *)
}

let acc () = { calls = 0; secs = 0.; kcycles = 0.; samples = Samples.create () }

let add ?(kcycles = 0.) a dt =
  a.calls <- a.calls + 1;
  a.secs <- a.secs +. dt;
  a.kcycles <- a.kcycles +. kcycles;
  Samples.add a.samples dt

let p50_us a = 1e6 *. median (Samples.to_array a.samples)

type t = {
  (* named *)
  make_world : acc;  (** Diff.make_world *)
  gen : acc;  (** Diff.gen_ops *)
  apply : acc;  (** Diff.apply_op *)
  fgen : acc;  (** Drive.gen_fops *)
  run_fops : acc;  (** Drive.run_fops *)
  world : acc;  (** Explore.make_world *)
  expand : acc;  (** Explore.expand_range, one frontier slice *)
  merge : acc;  (** Agg/Report merges and visited-set updates *)
  shard : acc;  (** Engine.run, one serve shard *)
  (* estimates *)
  crossing : acc;  (** Os.smc Enter/Resume *)
  smc : acc;  (** every other Os.smc *)
  write : acc;  (** Os.write_word, the OS's insecure stores *)
  aspec : acc;  (** Aspec.step_smc *)
  abs : acc;  (** Abs.abs *)
  compare : acc;  (** Astate.diff of the spec and abstract states *)
  pagedb : acc;  (** Pagedb.check *)
  atomic : acc;  (** Drive's atomicity check on error returns *)
  reboot : acc;  (** Os.crash_reboot *)
  alphabet : acc;  (** Explore.alphabet *)
  key : acc;  (** Explore.node_key *)
  node : acc;  (** Explore.expand_range of one frontier node *)
  serve_world : acc;  (** a shard's world build, teardown and audit *)
  service : acc;  (** Pool.serve, one session with its recycling *)
  session : acc;  (** Session.attest *)
  verify : acc;  (** Attest.verify *)
  everify : acc;  (** Session.enclave_verify *)
  (* counts *)
  mutable est_secs : float;  (** wall time spent in estimate re-calls *)
  mutable inner_secs : float;
      (** estimated time of the layers inside the wrapper calls,
          scaled up where only a sample was re-called *)
  mutable ops : int;  (** lockstep ops / fault ops / edges / sessions *)
  mutable injections : int;
  mutable new_states : int;
  mutable aspec_edges : int;  (** explore edges, for the sampled aspec estimate *)
  mutable aspec_sampled : int;
  mutable warm : int;
  mutable cold : int;
  mutable churn_kcycles : float;
  unit_cover : Samples.t;  (** per traced unit: its explained share *)
  mutable checks : int;  (** fidelity comparisons made *)
  mutable mismatches : string list;  (** fidelity failures, newest first *)
}

let create () =
  {
    make_world = acc ();
    gen = acc ();
    apply = acc ();
    fgen = acc ();
    run_fops = acc ();
    world = acc ();
    expand = acc ();
    merge = acc ();
    shard = acc ();
    crossing = acc ();
    smc = acc ();
    write = acc ();
    aspec = acc ();
    abs = acc ();
    compare = acc ();
    pagedb = acc ();
    atomic = acc ();
    reboot = acc ();
    alphabet = acc ();
    key = acc ();
    node = acc ();
    serve_world = acc ();
    service = acc ();
    session = acc ();
    verify = acc ();
    everify = acc ();
    est_secs = 0.;
    inner_secs = 0.;
    ops = 0;
    injections = 0;
    new_states = 0;
    aspec_edges = 0;
    aspec_sampled = 0;
    warm = 0;
    cold = 0;
    churn_kcycles = 0.;
    unit_cover = Samples.create ();
    checks = 0;
    mismatches = [];
  }

(** Time [f] into a named timer. *)
let named a f =
  let r, dt = time f in
  add a dt;
  r

(** Time an isolated re-call into an estimate timer; its wall time is
    charged to [est_secs], not to the traced unit. *)
let charge ?kcycles t a dt =
  add ?kcycles a dt;
  t.est_secs <- t.est_secs +. dt

let estimate t a f =
  let r, dt = time f in
  charge t a dt;
  r

(** Record one fidelity comparison. *)
let expect t ok what =
  t.checks <- t.checks + 1;
  if not ok then t.mismatches <- what :: t.mismatches

let secs accs = List.fold_left (fun s a -> s +. a.secs) 0. accs
let wrappers t = [ t.apply; t.run_fops; t.expand; t.shard ]

(** Add the estimate time [accs] gained since [before] (their [secs]
    then), scaled by [scale], to [inner_secs]. *)
let add_inner ?(scale = 1.) t accs ~before =
  t.inner_secs <- t.inner_secs +. (scale *. (secs accs -. before))

(** Traced time explained by layer timers: the named calls that are
    not wrappers, plus the estimated layers inside the wrappers. *)
let explained t =
  secs [ t.make_world; t.gen; t.fgen; t.world; t.merge ] +. t.inner_secs

let ratio a b = if b = 0. then 0. else a /. b

(** Record the explained share of one traced unit of [secs] seconds,
    begun when [explained t] read [x0]. *)
let unit_done t ~x0 secs = Samples.add t.unit_cover (ratio (explained t -. x0) secs)

let coverage t = median (Samples.to_array t.unit_cover)

(** The per-layer metrics, normalised per traced campaign ([reps]
    replicas were traced). [traced_wall] excludes estimate time;
    [untraced_wall] is the median wall of the same campaign run
    untraced; [unit_secs] sums the traced units' own time. *)
let metrics t ~reps ~traced_wall ~untraced_wall ~unit_secs =
  let per x = x /. float_of_int reps in
  let count a = per (float_of_int a.calls) in
  let mean_ms a = 1e3 *. ratio a.secs (float_of_int a.calls) in
  let sampled a =
    (* Explore samples single-node expansions, with their spec steps
       and successor keys, on a subset of edges and scales them up to
       every edge; the differential checkers time every call. *)
    if t.aspec_sampled = 0 then a.secs
    else a.secs *. float_of_int t.aspec_edges /. float_of_int t.aspec_sampled
  in
  let lockstep_secs = t.apply.secs +. t.run_fops.secs in
  let total_wall = traced_wall +. t.est_secs in
  [
    ("machine.crossings", count t.crossing, "count");
    ("machine.crossing_s", per t.crossing.secs, "s");
    ("machine.crossing_kcycles", per t.crossing.kcycles, "kcycles");
    ("machine.host_ns_per_kcycle", 1e9 *. ratio t.crossing.secs t.crossing.kcycles, "ns/kcycle");
    ("core.smc_calls", count t.smc, "count");
    ("core.smc_s", per t.smc.secs, "s");
    ("core.smc_us_p50", p50_us t.smc, "us");
    ("core.smc_kcycles", per t.smc.kcycles, "kcycles");
    ("os.write_s", per t.write.secs, "s");
    ("abs.calls", count t.abs, "count");
    ("abs.s", per t.abs.secs, "s");
    ("abs.us_p50", p50_us t.abs, "us");
    ( "aspec.calls",
      per (float_of_int (if t.aspec_sampled = 0 then t.aspec.calls else t.aspec_edges)),
      "count" );
    ("aspec.s", per (sampled t.aspec), "s");
    ("aspec.us_p50", p50_us t.aspec, "us");
    ("explore.world_ms", mean_ms t.world, "ms");
    ("explore.expand_s", per t.expand.secs, "s");
    ("explore.alphabet_s", per t.alphabet.secs, "s");
    ("explore.key_s", per (sampled t.key), "s");
    ( "explore.oracle_s",
      (if t.node.calls = 0 then 0.
       else per (sampled t.node -. t.alphabet.secs -. sampled t.aspec -. sampled t.key)),
      "s" );
    ( "explore.new_per_edge",
      (if t.expand.calls = 0 then 0.
       else ratio (float_of_int t.new_states) (float_of_int t.ops)),
      "ratio" );
    ("oracle.pagedb_calls", count t.pagedb, "count");
    ("oracle.pagedb_us_p50", p50_us t.pagedb, "us");
    ("oracle.pagedb_s", per t.pagedb.secs, "s");
    ("oracle.atomic_s", per t.atomic.secs, "s");
    ("diff.make_world_ms", mean_ms t.make_world, "ms");
    ("diff.gen_ms", mean_ms t.gen, "ms");
    ("diff.compare_s", per t.compare.secs, "s");
    ( "diff.apply_self_us",
      (if lockstep_secs = 0. then 0.
       else 1e6 *. ratio (lockstep_secs -. t.inner_secs) (float_of_int t.ops)),
      "us" );
    ("fault.run_fops_s", per t.run_fops.secs, "s");
    ("fault.gen_ms", mean_ms t.fgen, "ms");
    ("fault.reboot_s", per t.reboot.secs, "s");
    ( "fault.injections_per_op",
      (if t.run_fops.calls = 0 then 0.
       else ratio (float_of_int t.injections) (float_of_int t.ops)),
      "ratio" );
    ("serve.shard_s", ratio t.shard.secs (float_of_int t.shard.calls), "s");
    ("serve.world_ms", mean_ms t.serve_world, "ms");
    ("serve.service_us_p50", p50_us t.service, "us");
    ("serve.everify_us_p50", p50_us t.everify, "us");
    ("serve.session_us_p50", p50_us t.session, "us");
    ( "serve.warm_frac",
      ratio (float_of_int t.warm) (float_of_int (t.warm + t.cold)),
      "ratio" );
    ("serve.churn_kcycles", per t.churn_kcycles, "kcycles");
    ("crypto.attest_verify_us", p50_us t.verify, "us");
    ("campaign.merge_s", per t.merge.secs, "s");
    ("campaign.overhead_frac", 1. -. ratio (per unit_secs) untraced_wall, "ratio");
    ("trace.coverage_frac", coverage t, "ratio");
    ("trace.overhead_frac", 1. -. ratio untraced_wall (per total_wall), "ratio");
  ]
