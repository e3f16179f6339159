(* serve: attestation as a service, Serve.run with its defaults —
   Poisson open loop at a 12500-cycle mean gap (about 80% modelled
   utilisation), 4 slots, recycle 64, in-enclave verify every 32nd
   session — over 8 shards of 1024 sessions per campaign. Shards are
   smaller than the 4096 default so one run yields enough shard
   samples for a p90. Thousands of short enclave crossings over
   recycled enclaves plus HMAC; no abstraction or spec work. *)

module Serve = Komodo_serve.Serve
module Engine = Komodo_serve.Engine
module Report = Komodo_serve.Report
module Session = Komodo_serve.Session
module Spool = Komodo_serve.Pool
module Hist = Komodo_telemetry.Hist
module Word = Komodo_machine.Word
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors
module Attest = Komodo_core.Attest
module Pagedb = Komodo_core.Pagedb
module State = Komodo_machine.State
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Aspec = Komodo_spec.Aspec
module Seedsplit = Komodo_rand.Seedsplit
open Workload

let default = { Serve.defaults with Serve.sessions = 8192; shard_sessions = 1024 }

let of_report ~units ~wall (r : Report.t) =
  let failed = r.Report.verify_failures + Report.shed r in
  {
    ops = r.Report.served;
    attempted = r.Report.offered;
    failed;
    units;
    wall;
    digest = Util.digest (Report.render r);
    summary =
      Printf.sprintf "%d sessions offered, %d served, %d shed, %d MAC failures, %d shards"
        r.Report.offered r.Report.served (Report.shed r) r.Report.verify_failures
        r.Report.shards;
  }

let serve_run cfg ?progress ~seed () = Serve.run ?progress ~jobs:1 ~cfg ~seed ()

let nshards cfg = Serve.shards ~sessions:cfg.Serve.sessions ~shard_sessions:cfg.Serve.shard_sessions

let run cfg ~seed r =
  let clock, stamps = stamp_clock () in
  let progress = progress ~label:"serve" ~total:(nshards cfg) clock in
  let report, wall =
    Util.time (fun () -> serve_run cfg ~progress ~seed:(campaign_seed ~seed r) ())
  in
  of_report ~units:(Util.intervals ~n:report.Report.shards !stamps) ~wall report

(* Campaigns the model statistics cover: one campaign's sojourn p99
   sits on too few sessions to compare across seeds. *)
let model_campaigns = 8

let model cfg ~seed reps =
  let runs = List.init model_campaigns (fun r -> serve_run cfg ~seed:(campaign_seed ~seed r) ()) in
  let again = List.map (of_report ~units:[||] ~wall:0.) runs in
  let r = Report.merge (Array.of_list runs) in
  let k x = float_of_int x /. 1000. in
  {
    kcycles_per_op =
      Some (k r.Report.busy_cycles /. float_of_int (max 1 r.Report.served));
    sojourn_p50_kcycles = Some (k (Hist.p50 r.Report.h_sojourn));
    sojourn_p99_kcycles = Some (k (Hist.p99 r.Report.h_sojourn));
    model_digest =
      Util.digest
        (Printf.sprintf "%s busy=%d churn=%d makespan=%d"
           (String.concat " " (List.map (fun (a : rep) -> a.digest) again))
           r.Report.busy_cycles r.Report.churn_cycles r.Report.makespan);
    consistent = List.for_all Fun.id (List.mapi (reproduces reps) again);
  }

(* Re-call [Session.attest] (and the Enter inside it) and
   [Attest.verify] on every [recall_every]th warm session. *)
let recall_every = 8

(* The layers inside one [Engine.run] shard, estimated on a twin built
   right after it the way the engine builds it: the same boot seed and
   session count, the verifier enclave, a recycling notary pool, the
   sessions served round-robin through [Pool.serve] with the in-enclave
   verify every [everify]th session, then the end-of-shard teardown and
   audit. World build and teardown, [Pool.serve] and
   [Session.enclave_verify] are the estimated layers inside the shard.
   Running each twin next to its shard lets both see the same host. *)
let twin (s : Serve.cfg) (l : Layers.t) ~seed ~sessions =
  let e0 = l.Layers.est_secs in
  let inner = [ l.Layers.serve_world; l.Layers.service; l.Layers.everify ] in
  let before = Layers.secs inner in
  let (), dt =
    Util.time (fun () ->
        let os, verifier, pool =
          Layers.estimate l l.Layers.serve_world (fun () ->
              let os = Os.boot ~seed ~npages:s.Serve.npages () in
              match Loader.load os (Session.verifier_image ~shared_target:Os.shared_base) with
              | Ok (os, verifier) ->
                  let os, pool = Spool.create os ~slots:s.Serve.slots ~recycle:s.Serve.recycle in
                  (os, verifier, pool)
              | Error e -> failwith (Format.asprintf "twin: loading verifier: %a" Loader.pp_error e))
        in
        let vthread = List.hd verifier.Loader.threads in
        let g = Seedsplit.stream ~root:seed () in
        let rec go os k =
          if k = sessions then os
          else begin
            let slot = Spool.slot pool (k mod Spool.slots pool) in
            let thread = slot.Spool.thread and shared = slot.Spool.shared in
            let measurement = slot.Spool.measurement in
            let nonce = String.init Session.nonce_bytes (fun _ -> Char.chr (Seedsplit.next g land 0xff)) in
            let os', svc = Layers.estimate l l.Layers.service (fun () -> Spool.serve pool os slot ~nonce) in
            let v = svc.Spool.s_verdict in
            Layers.expect l
              (Errors.is_success v.Session.v_err && v.Session.v_mac_ok && v.Session.v_tamper_rejected)
              "Pool.serve failed a session on the twin";
            let mac = Session.published_mac os' ~shared in
            if k mod recall_every = 0 && not svc.Spool.s_cold then begin
              let staged = Os.write_bytes os shared nonce in
              let c0 = Os.cycles staged in
              let (os_e, err, _), edt =
                Util.time (fun () ->
                    Os.smc staged ~call:Aspec.smc_enter
                      ~args:[ Word.of_int thread; Word.zero; Word.zero; Word.zero ])
              in
              Layers.charge ~kcycles:(float_of_int (Os.cycles os_e - c0) /. 1000.) l
                l.Layers.crossing edt;
              let _, v' =
                Layers.estimate l l.Layers.session (fun () ->
                    Session.attest ~os ~thread ~shared ~measurement ~nonce)
              in
              Layers.expect l
                (v'.Session.v_err = v.Session.v_err
                && v'.Session.v_enter_cycles = v.Session.v_enter_cycles
                && v'.Session.v_verify_cycles = v.Session.v_verify_cycles)
                "isolated Session.attest differs from Pool.serve";
              Layers.expect l
                (Errors.to_word err = Errors.to_word v.Session.v_err
                && Os.cycles os_e - c0 = v.Session.v_enter_cycles)
                "isolated Os.smc Enter differs from Session.attest";
              let ok =
                Layers.estimate l l.Layers.verify (fun () ->
                    Attest.verify ~key:os'.Os.mon.Monitor.attest_key ~measurement ~data:nonce ~mac)
              in
              Layers.expect l ok "Attest.verify rejected the published MAC"
            end;
            let os' =
              if s.Serve.everify > 0 && k mod s.Serve.everify = 0 then begin
                let os'', _, ok =
                  Layers.estimate l l.Layers.everify (fun () ->
                      Session.enclave_verify ~os:os' ~thread:vthread ~shared:Os.shared_base
                        ~measurement:slot.Spool.measurement ~nonce ~mac)
                in
                Layers.expect l ok "Session.enclave_verify rejected the published MAC";
                os''
              end
              else os'
            in
            go os' (k + 1)
          end
        in
        let os = go os 0 in
        let vs =
          Layers.estimate l l.Layers.serve_world (fun () ->
              match Loader.unload (Spool.drain pool os) verifier with
              | Ok os ->
                  let mon = os.Os.mon in
                  Pagedb.check mon.Monitor.plat mon.Monitor.mach.State.mem mon.Monitor.pagedb
              | Error e -> failwith (Format.asprintf "twin: unloading verifier: %a" Loader.pp_error e))
        in
        Layers.expect l (vs = []) "PageDB invariant broken after the twin's teardown")
  in
  Layers.add_inner l inner ~before;
  l.Layers.est_secs <- e0 +. dt

(* Serve.run at -j 1, replicated shard by shard: the same engine
   configuration and shard seeds, merged in index order. *)
let traced cfg (l : Layers.t) ~seed r =
  let root = campaign_seed ~seed r in
  let s = cfg in
  let n = nshards cfg in
  let t0 = Util.now () and est0 = l.Layers.est_secs in
  let units = Array.make n 0. in
  let reports =
    Array.init n (fun i ->
        let u0 = Util.now () and x0 = Layers.explained l in
        let sessions =
          if i < n - 1 then s.Serve.shard_sessions
          else s.Serve.sessions - ((n - 1) * s.Serve.shard_sessions)
        in
        let ecfg =
          {
            Engine.e_sessions = sessions;
            e_slots = s.Serve.slots;
            e_recycle = s.Serve.recycle;
            e_queue = s.Serve.queue;
            e_policy = s.Serve.policy;
            e_mode = s.Serve.mode;
            e_gap = s.Serve.gap;
            e_everify = s.Serve.everify;
            e_npages = s.Serve.npages;
          }
        in
        let seed = Serve.shard_seed ~root i in
        let rep = Layers.named l.Layers.shard (fun () -> Engine.run ecfg ~seed) in
        units.(i) <- Util.now () -. u0;
        twin s l ~seed ~sessions;
        Layers.unit_done l ~x0 units.(i);
        rep)
  in
  let merged = Layers.named l.Layers.merge (fun () -> Report.merge reports) in
  let wall = Util.now () -. t0 -. (l.Layers.est_secs -. est0) in
  l.Layers.ops <- l.Layers.ops + merged.Report.served;
  l.Layers.warm <- l.Layers.warm + merged.Report.warm;
  l.Layers.cold <- l.Layers.cold + merged.Report.cold;
  l.Layers.churn_kcycles <-
    l.Layers.churn_kcycles +. (float_of_int merged.Report.churn_cycles /. 1000.);
  of_report ~units ~wall merged

let make cfg =
  {
    name = "serve";
    unit_name = "shard";
    ops_name = "sessions served";
    setup =
      (fun ~seed k ->
        ignore
          (Serve.run ~jobs:1
             ~cfg:{ cfg with Serve.sessions = 512; shard_sessions = 512 }
             ~seed:(setup_seed ~seed k) ()));
    run = run cfg;
    model = model cfg;
    traced = traced cfg;
  }

let workload = make default
