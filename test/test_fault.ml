(* The fault-injection subsystem: clean campaigns stay atomic, the
   checker self-tests catch the re-enabled partial-mutation bugs, the
   injector is bound by the TZASC, crash/reboot scrubs only OS-owned
   memory, and shrunk campaigns round-trip through the komodo-trace/1
   format (including the committed regression trace). *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Platform = Komodo_tz.Platform
module Monitor = Komodo_core.Monitor
module Bugs = Komodo_core.Bugs
module Pagedb = Komodo_core.Pagedb
module Os = Komodo_os.Os
module Inject = Komodo_fault.Inject
module Drive = Komodo_fault.Drive
module Campaign = Komodo_campaign.Campaign
module Fault_campaign = Campaign.Make (Drive)

let test_clean_campaign () =
  (* Every fault class armed, fixed seed: the monitor must absorb all
     of it without a single invariant or atomicity violation. *)
  let o =
    Campaign.fault ~jobs:1 ~faults:Drive.all_classes ~trials:8 ~seed:42 ()
  in
  (match o.Drive.violation with
  | None -> ()
  | Some (tseed, _, v) ->
      Alcotest.failf "trial seed %d: %s" tseed (Drive.pp_violation v));
  Alcotest.(check int) "all trials ran" 8 o.Drive.trials_run;
  Alcotest.(check bool) "ops were stepped" true (o.Drive.total_fops > 100);
  Alcotest.(check bool)
    (Printf.sprintf "faults actually fired (got %d)" o.Drive.total_injections)
    true
    (o.Drive.total_injections > 10)

let test_campaign_deterministic () =
  let run () =
    Campaign.fault ~jobs:1 ~faults:Drive.all_classes ~trials:3 ~seed:7 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same fops" a.Drive.total_fops b.Drive.total_fops;
  Alcotest.(check int) "same injections" a.Drive.total_injections
    b.Drive.total_injections;
  Alcotest.(check int) "same blackout" a.Drive.blackout b.Drive.blackout

let catch_bug ?(trials = 10) bug =
  match
    (Campaign.fault ~jobs:1 ~faults:Drive.all_classes ~trials ~seed:42 ~bug ())
      .Drive.violation
  with
  | None -> Alcotest.failf "bug %s survived the campaign" (Bugs.name bug)
  | Some (_, shrunk, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 3 fops (got %d)" (List.length shrunk))
        true
        (List.length shrunk <= 3)

let test_catch_partial_map_secure () = catch_bug Bugs.Partial_map_secure
let test_catch_partial_remove () = catch_bug Bugs.Partial_remove

(* The lockstep inside every fault trial runs the spec step, so the
   campaign arms and must catch the spec's bugs too (CI's 15 trials:
   no-monitor-image-check first fires in trial 14). *)
let test_catch_spec_bugs () =
  List.iter (catch_bug ~trials:15) Bugs.[ No_alias_check; No_monitor_image_check; Drop_refcount ]

let test_injector_tzasc_bound () =
  (* The modelled TZASC: a commit-point store aimed at secure memory is
     silently dropped — the injector cannot do what the hardware
     promises the environment cannot. *)
  let os = Testlib.boot () in
  let mon = os.Os.mon in
  let inj = Inject.create ~plat:mon.Monitor.plat () in
  let secure = Word.to_int (Platform.page_base mon.Monitor.plat 0) in
  Inject.arm inj
    [
      {
        Inject.point = Inject.Commit;
        action = Inject.Mem_write { addr = secure; value = 0xbad };
      };
    ];
  let mon' = Inject.hook inj (Monitor.Ph_commit { smc = true; call = 1 }) mon in
  Alcotest.(check bool) "secure memory untouched" true
    (Memory.equal mon.Monitor.mach.State.mem mon'.Monitor.mach.State.mem);
  Alcotest.(check int) "nothing fired" 0 (Inject.fired_count inj);
  (* The same store aimed at OS RAM goes through. *)
  Inject.arm inj
    [
      {
        Inject.point = Inject.Commit;
        action = Inject.Mem_write { addr = 0x100; value = 0xbad };
      };
    ];
  let mon'' = Inject.hook inj (Monitor.Ph_commit { smc = true; call = 1 }) mon in
  Alcotest.(check int) "insecure store landed" 0xbad
    (Word.to_int (Memory.load mon''.Monitor.mach.State.mem (Word.of_int 0x100)));
  Alcotest.(check int) "and was recorded" 1 (Inject.fired_count inj)

let test_crash_reboot () =
  let os = Testlib.boot () in
  let os = Os.write_bytes os Os.staging_base (String.make 64 'x') in
  let before = os.Os.mon in
  let os' = Os.crash_reboot ~seed:1 os in
  let mem b = b.Monitor.mach.State.mem in
  Alcotest.(check bool) "staging scrubbed to junk" false
    (String.equal
       (Os.read_bytes os Os.staging_base 64)
       (Os.read_bytes os' Os.staging_base 64));
  Alcotest.(check bool) "monitor pagedb survives the OS crash" true
    (Pagedb.equal before.Monitor.pagedb os'.Os.mon.Monitor.pagedb);
  let plat = before.Monitor.plat in
  let secure_ok =
    List.for_all
      (fun n ->
        Memory.equal_range (mem before)
          (mem os'.Os.mon)
          (Platform.page_base plat n)
          Komodo_machine.Ptable.words_per_page)
      (List.init plat.Platform.npages Fun.id)
  in
  Alcotest.(check bool) "secure pages survive the OS crash" true secure_ok;
  (* Deterministic: same crash seed, same junk. *)
  let os'' = Os.crash_reboot ~seed:1 os in
  Alcotest.(check string) "crash is seed-deterministic"
    (Os.read_bytes os' Os.staging_base 64)
    (Os.read_bytes os'' Os.staging_base 64)

let test_trace_roundtrip () =
  let w = Komodo_spec.Diff.make_world ~npages:40 ~seed:5 () in
  let fops = Drive.gen_fops w ~faults:Drive.all_classes ~seed:5 ~n:30 in
  let lines = Fault_campaign.to_trace ~seed:5 Drive.default fops in
  match Fault_campaign.of_trace lines with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (seed, cfg, fops') ->
      Alcotest.(check int) "seed" 5 seed;
      Alcotest.(check int) "npages" 40 cfg.Drive.npages;
      Alcotest.(check bool) "no bug" true (cfg.Drive.bug = None);
      Alcotest.(check (list string)) "re-serialises identically" lines
        (Fault_campaign.to_trace ~seed:5 cfg fops')

let test_committed_trace_replays () =
  (* The committed regression trace: a campaign shrunk from the
     partial-remove self-test must keep reproducing its violation. *)
  let lines =
    List.filter (fun l -> String.trim l <> "") (Testlib.data_lines "traces/partial_remove.jsonl")
  in
  match Fault_campaign.of_trace lines with
  | Error e -> Alcotest.failf "committed trace unparseable: %s" e
  | Ok (seed, cfg, fops) -> (
      Alcotest.(check bool) "trace carries the bug" true
        (cfg.Drive.bug = Some Bugs.Partial_remove);
      match Drive.replay cfg ~seed fops with
      | Ok _ -> Alcotest.fail "committed violation no longer reproduces"
      | Error v ->
          Alcotest.(check bool) "violation names a reason" true
            (String.length v.Drive.reason > 0))

let suite =
  [
    Alcotest.test_case "clean campaign, all fault classes" `Quick
      test_clean_campaign;
    Alcotest.test_case "campaigns are seed-deterministic" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "self-test: partial MapSecure caught" `Quick
      test_catch_partial_map_secure;
    Alcotest.test_case "self-test: partial Remove caught" `Quick
      test_catch_partial_remove;
    Alcotest.test_case "injector bound by the TZASC" `Quick
      test_injector_tzasc_bound;
    Alcotest.test_case "OS crash/reboot semantics" `Quick test_crash_reboot;
    Alcotest.test_case "trace round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "committed trace still reproduces" `Quick
      test_committed_trace_replays;
    Alcotest.test_case "self-test: spec bugs caught" `Quick test_catch_spec_bugs;
  ]
