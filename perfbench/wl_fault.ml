(* fault: Campaign.fault with all five fault classes at 40 pages. The
   only workload that runs Pagedb.check after every op and drives the
   interpreter through the per-instruction injection hook. *)

module Campaign = Komodo_campaign.Campaign
module Drive = Komodo_fault.Drive
module Inject = Komodo_fault.Inject
module Diff = Komodo_spec.Diff
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Ptable = Komodo_machine.Ptable
module Platform = Komodo_tz.Platform
module Aspec = Komodo_spec.Aspec
module Os = Komodo_os.Os
open Workload

let npages = 40
let ops_per_trial = 40
let faults = Drive.all_classes

let report ~trials ~fops ~injections ~blackout ~violated =
  let summary =
    Printf.sprintf "%d trials, %d fault ops, %d injections, worst blackout %d cycles, %s"
      trials fops injections blackout
      (if violated then "VIOLATED" else "no violation")
  in
  (Util.digest summary, summary)

let of_outcome ~units ~wall (o : Drive.outcome) =
  let digest, summary =
    report ~trials:o.Drive.trials_run ~fops:o.Drive.total_fops
      ~injections:o.Drive.total_injections ~blackout:o.Drive.blackout
      ~violated:(o.Drive.violation <> None)
  in
  {
    ops = o.Drive.total_fops;
    attempted = o.Drive.trials_run;
    failed = (if o.Drive.violation = None then 0 else 1);
    units;
    wall;
    digest;
    summary;
  }

let fault ?progress ?profile ~trials ~seed () =
  Campaign.fault ~npages ~ops_per_trial ?progress ?profile ~jobs:1 ~faults ~trials ~seed ()

let run ~trials ~seed r =
  let clock, stamps = stamp_clock () in
  let progress = progress ~label:"fault" ~total:trials clock in
  let o, wall =
    Util.time (fun () -> fault ~progress ~trials ~seed:(campaign_seed ~seed r) ())
  in
  of_outcome ~units:(Util.intervals ~n:o.Drive.trials_run !stamps) ~wall o

let model ~trials ~seed reps =
  Wl_check.profiled_model reps ~profile:(fun r ->
      let o = fault ~profile:true ~trials ~seed:(campaign_seed ~seed r) () in
      (of_outcome ~units:[||] ~wall:0. o, o.Drive.spans))

(* The oracle overrides an injection plan implies, as [Drive.run_fops]
   derives them: a commit-point store makes MapSecure contents
   unknowable, instruction-level injection (or a commit-point interrupt
   on Enter/Resume) makes a probe run opaque, an armed exhaustion dries
   the entropy oracle. *)
let at_commit pred items =
  List.exists
    (fun i ->
      (match i.Inject.point with Inject.Commit -> true | Inject.Insn _ | Inject.Lockstep _ -> false)
      && pred i.Inject.action)
    items

let decor inj (op : Diff.op) items =
  let exec = match op with Diff.Smc { call; _ } -> Lockstep.is_crossing call | Diff.Write_ins _ -> false in
  let insn = List.exists (fun i -> match i.Inject.point with Inject.Insn _ -> true | _ -> false) items in
  {
    Lockstep.arm = (fun () -> Inject.arm inj items);
    disarm =
      (fun () ->
        Inject.disarm inj;
        ignore (Inject.take_blackout inj));
    opaque_contents = at_commit (function Inject.Mem_write _ -> true | _ -> false) items;
    opaque_probe =
      insn || (exec && at_commit (function Inject.Irq | Inject.Fiq -> true | _ -> false) items);
    rng_exhausted =
      (if at_commit (function Inject.Rng_exhaust -> true | _ -> false) items then Some true
       else None);
  }

(* Drive's transactional-atomicity oracle on an error return of a
   non-crossing call: the PageDB and every secure page unchanged. *)
let untouched (before : Monitor.t) (after : Monitor.t) =
  let plat = after.Monitor.plat in
  let rec pages n =
    n >= plat.Platform.npages
    || Memory.equal_range before.Monitor.mach.State.mem after.Monitor.mach.State.mem
         (Platform.page_base plat n) Ptable.words_per_page
       && pages (n + 1)
  in
  Pagedb.equal before.Monitor.pagedb after.Monitor.pagedb && pages 0

let atomicity (l : Layers.t) (rs : Diff.rstate) (rs' : Diff.rstate) = function
  | Diff.Smc { call; _ }
    when (not (Lockstep.is_crossing call)) && Lockstep.reg rs'.Diff.os 0 <> Aspec.e_success ->
      let before = l.Layers.atomic.Layers.secs in
      let ok =
        Layers.estimate l l.Layers.atomic (fun () -> untouched rs.Diff.os.Os.mon rs'.Diff.os.Os.mon)
      in
      Layers.add_inner l [ l.Layers.atomic ] ~before;
      Layers.expect l ok "an error return mutated the replayed state"
  | Diff.Smc _ | Diff.Write_ins _ -> ()

(* The layers inside Drive.run_fops, estimated on a replay of the same
   fault ops with the same injection plans armed around every call
   (isolated re-calls included), followed by Pagedb.check and the
   atomicity check as [Drive.run_fops] runs them. All replay time is
   estimate time. *)
let replay (l : Layers.t) w fops =
  let e0 = l.Layers.est_secs in
  let (), dt =
    Util.time (fun () ->
        let rs0 = Diff.initial_rstate w in
        let os = rs0.Diff.os in
        let inj = Inject.create ~plat:os.Os.mon.Monitor.plat () in
        let os =
          {
            Os.mon = { os.Os.mon with Monitor.inject = Some (Inject.hook inj) };
            alloc = os.Os.alloc;
            exec = Komodo_user.Verifier.executor ~inject:(Inject.exec_inject inj) ();
          }
        in
        let cache = Komodo_spec.Abs.cache () in
        let rec go rs i = function
          | [] -> ()
          | Drive.Crash { seed } :: rest ->
              let before = l.Layers.reboot.Layers.secs in
              let os = Layers.estimate l l.Layers.reboot (fun () -> Os.crash_reboot ~seed rs.Diff.os) in
              Layers.add_inner l [ l.Layers.reboot ] ~before;
              go { rs with Diff.os } (i + 1) rest
          | Drive.Op { op; inj = items } :: rest -> (
              match Lockstep.step ~decor:(decor inj op items) l ~cache rs i op with
              | Ok rs' ->
                  Lockstep.pagedb l rs';
                  atomicity l rs rs' op;
                  go rs' (i + 1) rest
              | Error d ->
                  Layers.expect l false ("replayed fault op diverged: " ^ d.Diff.reason))
        in
        go { rs0 with Diff.os = os } 0 fops)
  in
  l.Layers.est_secs <- e0 +. dt

(* Campaign.fault at -j 1, replicated trial by trial. *)
let traced ~trials (l : Layers.t) ~seed r =
  let root = campaign_seed ~seed r in
  let t0 = Util.now () and est0 = l.Layers.est_secs in
  let units = Util.Samples.create () in
  let fops_total = ref 0 and injections = ref 0 and blackout = ref 0 in
  let violated = ref false and i = ref 0 in
  while (not !violated) && !i < trials do
    let u0 = Util.now () and e0 = l.Layers.est_secs and x0 = Layers.explained l in
    let s = Campaign.trial_seed ~root !i in
    let w =
      Layers.named l.Layers.make_world (fun () -> Diff.make_world ~npages ~seed:s ())
    in
    let fops =
      Layers.named l.Layers.fgen (fun () ->
          Drive.gen_fops w ~faults ~seed:s ~n:ops_per_trial)
    in
    (match Layers.named l.Layers.run_fops (fun () -> Drive.run_fops w fops) with
    | Ok st ->
        fops_total := !fops_total + st.Drive.fops_run;
        injections := !injections + st.Drive.injections;
        blackout := max !blackout st.Drive.worst_blackout
    | Error v ->
        fops_total := !fops_total + v.Drive.index;
        violated := true);
    replay l w fops;
    let dt = Util.now () -. u0 -. (l.Layers.est_secs -. e0) in
    Util.Samples.add units dt;
    Layers.unit_done l ~x0 dt;
    incr i
  done;
  l.Layers.ops <- l.Layers.ops + !fops_total;
  l.Layers.injections <- l.Layers.injections + !injections;
  let digest, summary =
    report ~trials:!i ~fops:!fops_total ~injections:!injections ~blackout:!blackout
      ~violated:!violated
  in
  {
    ops = !fops_total;
    attempted = !i;
    failed = (if !violated then 1 else 0);
    units = Util.Samples.to_array units;
    wall = Util.now () -. t0 -. (l.Layers.est_secs -. est0);
    digest;
    summary;
  }

let make ~trials =
  {
    name = "fault";
    unit_name = "trial";
    ops_name = "fault ops";
    setup = (fun ~seed k -> ignore (fault ~trials:8 ~seed:(setup_seed ~seed k) ()));
    run = run ~trials;
    model = model ~trials;
    traced = traced ~trials;
  }

let workload = make ~trials:150
