(* The per-shard serving engine: a discrete-event simulation over model
   cycles, driving real enclaves.

   One shard is a self-contained serving cell: its own booted world,
   its own enclave pool, its own admission queue, its own workload
   stream. Sessions arrive on the model clock (open-loop gaps or
   closed-loop think times from {!Workload}), wait in the bounded
   {!Backpressure} queue when every slot is busy, and are then served
   by actually entering a pooled notary enclave and checking the
   monitor's attestation MAC — service time is the measured model-cycle
   cost of the real Enter/Attest/Verify work, not a synthetic draw.

   Everything the engine consumes is a pure function of the shard seed,
   so a shard report is reproducible in isolation and the serve
   campaign is byte-identical at any `-j`. The engine ends every shard
   by draining the pool and auditing PageDB conservation: a million
   sessions of lifecycle churn must hand back exactly the pages it
   borrowed, with every monitor invariant intact. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Hist = Komodo_telemetry.Hist
module Seedsplit = Komodo_rand.Seedsplit

type cfg = {
  e_sessions : int;  (** sessions this shard must offer *)
  e_slots : int;  (** pool slots requested *)
  e_recycle : int;  (** pool recycle period; 0 = never *)
  e_queue : int;  (** admission queue capacity *)
  e_policy : Backpressure.policy;
  e_mode : Workload.mode;
  e_gap : int;  (** open-loop mean inter-arrival gap, model cycles *)
  e_everify : int;  (** route every Nth session in-enclave; 0 = never *)
  e_npages : int;  (** secure pages in the shard's world *)
}

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type state = {
  cfg : cfg;
  mutable os : Os.t;
  pool : Pool.t;
  queue : int Backpressure.t;
  wrng : Workload.rng;
  vthread : int;  (** the shard's verifier-enclave thread *)
  vmeas : string;
  report : Report.t;
  mutable horizon : int;  (** latest model-cycle event seen *)
}

(* -- Session dispatch ---------------------------------------------------- *)

(* Serve session [id] on [slot], starting at cycle [start] (its arrival
   was [arrival]; the difference is queueing delay). Advances the
   slot's [free_at] by the measured service time and returns the
   completion cycle. *)
let dispatch st id ~arrival ~start (slot : Pool.slot) =
  let nonce = Workload.nonce st.wrng in
  let os, svc = Pool.serve st.pool st.os slot ~nonce in
  st.os <- os;
  let v = svc.Pool.s_verdict in
  let everify_cycles, everified, ev_ok =
    if
      st.cfg.e_everify > 0
      && id mod st.cfg.e_everify = 0
      && Errors.is_success v.Session.v_err
    then begin
      let mac = Session.published_mac st.os ~shared:slot.Pool.shared in
      let os, cycles, ok =
        Session.enclave_verify ~os:st.os ~thread:st.vthread
          ~shared:Os.shared_base ~measurement:slot.Pool.measurement ~nonce ~mac
      in
      st.os <- os;
      (cycles, true, ok)
    end
    else (0, false, true)
  in
  let service =
    svc.Pool.s_churn_cycles + v.Session.v_enter_cycles
    + v.Session.v_verify_cycles + everify_cycles
  in
  slot.Pool.free_at <- start + service;
  if slot.Pool.free_at > st.horizon then st.horizon <- slot.Pool.free_at;
  let wait = start - arrival in
  let r = st.report in
  Hist.record r.Report.h_enter v.Session.v_enter_cycles;
  Hist.record r.Report.h_attest service;
  Hist.record r.Report.h_wait wait;
  Hist.record r.Report.h_sojourn (wait + service);
  r.Report.served <- r.Report.served + 1;
  r.Report.busy_cycles <- r.Report.busy_cycles + service;
  if everified then r.Report.enclave_verified <- r.Report.enclave_verified + 1;
  let ok =
    Errors.is_success v.Session.v_err
    && v.Session.v_mac_ok && v.Session.v_tamper_rejected && ev_ok
  in
  if not ok then r.Report.verify_failures <- r.Report.verify_failures + 1;
  slot.Pool.free_at

(* Dispatch queued sessions into slots that free up at or before cycle
   [upto]. [on_complete id finish] and [on_expired id now] let the
   closed-loop driver reschedule clients; the open loop ignores both. *)
let release st ~upto ~on_complete ~on_expired =
  let rec go () =
    if Backpressure.depth st.queue > 0 then begin
      let slot = Pool.earliest_free st.pool in
      let now = slot.Pool.free_at in
      if now <= upto then begin
        match
          Backpressure.take st.queue ~now ~expired:(fun id -> on_expired id now)
        with
        | None -> ()
        | Some (arrival, id) ->
            let finish = dispatch st id ~arrival ~start:now slot in
            on_complete id finish;
            go ()
      end
    end
  in
  go ()

(* One arrival at cycle [now]: an idle slot serves it immediately,
   otherwise it joins the bounded queue (or is shed at the door). *)
let arrive st id ~now ~on_complete ~on_expired =
  if now > st.horizon then st.horizon <- now;
  st.report.Report.offered <- st.report.Report.offered + 1;
  release st ~upto:now ~on_complete ~on_expired;
  match Pool.idle_slot st.pool ~now with
  | Some slot ->
      let finish = dispatch st id ~arrival:now ~start:now slot in
      on_complete id finish
  | None -> (
      match Backpressure.offer st.queue ~now id with
      | `Queued -> ()
      | `Shed -> on_expired id now)

(* -- Workload drivers ---------------------------------------------------- *)

let run_open st arrival =
  let next_gap = Workload.gaps arrival ~mean_gap:st.cfg.e_gap st.wrng in
  let ignore2 _ _ = () in
  let now = ref 0 in
  for id = 0 to st.cfg.e_sessions - 1 do
    now := !now + next_gap ();
    arrive st id ~now:!now ~on_complete:ignore2 ~on_expired:ignore2
  done;
  release st ~upto:max_int ~on_complete:ignore2 ~on_expired:ignore2

let run_closed st ~clients ~think =
  if clients <= 0 then invalid_arg "Engine: closed loop needs clients";
  (* Each client's next issue cycle; [max_int] while parked in the
     queue. Session ids carry the issuing client. *)
  let next = Array.init clients (fun _ -> Workload.think_gap st.wrng ~mean:think) in
  let reissue c finish = next.(c) <- finish + Workload.think_gap st.wrng ~mean:think in
  let issued = ref 0 in
  while !issued < st.cfg.e_sessions do
    let c = ref 0 in
    for i = 1 to clients - 1 do
      if next.(i) < next.(!c) then c := i
    done;
    if next.(!c) = max_int then
      (* every client is parked in the queue: advance the clock to the
         next slot-free event and dispatch from the queue *)
      release st ~upto:(Pool.earliest_free st.pool).Pool.free_at
        ~on_complete:reissue ~on_expired:reissue
    else begin
      let t = next.(!c) in
      incr issued;
      next.(!c) <- max_int;
      arrive st !c ~now:t ~on_complete:reissue ~on_expired:reissue
    end
  done;
  release st ~upto:max_int ~on_complete:reissue ~on_expired:reissue

(* -- Shard entry point --------------------------------------------------- *)

(** Run one shard to completion and return its report
    ([Report.shards = 1]). @raise Violation on a verification failure
    the monitor should have made impossible (page leak, invariant
    break) — distinct from per-session [verify_failures], which are
    counted, not fatal. *)
let run cfg ~seed =
  if cfg.e_sessions <= 0 then invalid_arg "Engine.run: sessions";
  if cfg.e_gap <= 0 then invalid_arg "Engine.run: gap";
  let os = Os.boot ~seed ~npages:cfg.e_npages () in
  let free0 = Pagedb.free_count os.Os.mon.Monitor.pagedb in
  (* The shard's verifier enclave lives at the base shared window; pool
     slots stack their windows above it (Pool.slot_shared). *)
  let os, verifier =
    match Loader.load os (Session.verifier_image ~shared_target:Os.shared_base) with
    | Ok (os, h) -> (os, h)
    | Error e ->
        failwith (Format.asprintf "serve: loading verifier: %a" Loader.pp_error e)
  in
  let os, pool = Pool.create os ~slots:cfg.e_slots ~recycle:cfg.e_recycle in
  let st =
    {
      cfg;
      os;
      pool;
      queue = Backpressure.create ~capacity:cfg.e_queue ~policy:cfg.e_policy;
      wrng = Workload.rng ~seed:(Seedsplit.derive ~root:seed 1);
      vthread = List.hd verifier.Loader.threads;
      vmeas = verifier.Loader.measurement;
      report = Report.create ();
      horizon = 0;
    }
  in
  st.report.Report.shards <- 1;
  (match cfg.e_mode with
  | Workload.Open arrival -> run_open st arrival
  | Workload.Closed { clients; think } -> run_closed st ~clients ~think);
  (* Fold queue accounting into the report. *)
  let r = st.report in
  r.Report.shed_full <- Backpressure.shed_full st.queue;
  r.Report.shed_deadline <- Backpressure.shed_deadline st.queue;
  r.Report.queue_peak <- Backpressure.max_depth st.queue;
  r.Report.pool_slots <- Pool.slots pool;
  r.Report.pool_requested <- Pool.requested pool;
  r.Report.warm <- Pool.warm pool;
  r.Report.cold <- Pool.cold pool;
  r.Report.rebuilds <- Pool.rebuilds pool;
  r.Report.churn_cycles <- Pool.churn_cycles pool;
  r.Report.makespan <- st.horizon;
  r.Report.capacity_cycles <- Pool.slots pool * st.horizon;
  if r.Report.offered <> cfg.e_sessions then
    violation "shard offered %d sessions, expected %d" r.Report.offered
      cfg.e_sessions;
  if r.Report.served + Report.shed r <> r.Report.offered then
    violation "session accounting leak: %d served + %d shed <> %d offered"
      r.Report.served (Report.shed r) r.Report.offered;
  (* End-of-shard audit: tear every enclave down and confirm the
     monitor handed back exactly the pages the shard borrowed, with the
     PageDB well-formed — conservation under lifecycle churn. *)
  let os = Pool.drain pool st.os in
  let os =
    match Loader.unload os verifier with
    | Ok os -> os
    | Error e ->
        failwith (Format.asprintf "serve: unloading verifier: %a" Loader.pp_error e)
  in
  let mon = os.Os.mon in
  let free1 = Pagedb.free_count mon.Monitor.pagedb in
  if free1 <> free0 then
    violation "page leak under churn: %d free pages at boot, %d after drain"
      free0 free1;
  (match Pagedb.check mon.Monitor.plat mon.Monitor.mach.State.mem mon.Monitor.pagedb with
  | [] -> ()
  | v :: _ ->
      violation "PageDB invariant broken after churn: %s"
        (Format.asprintf "%a" Pagedb.pp_violation v));
  st.report
