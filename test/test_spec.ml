(* The abstract spec and differential refinement checker (lib/spec).

   The heavyweight acceptance run is `komodo check --trials 500`; here
   the same machinery runs at test scale: lockstep trials must find no
   divergence with full call coverage, every deliberately broken spec
   variant must be caught and shrunk to a short trace, and telemetry
   traces must replay cleanly against the spec (and not replay when
   tampered with). *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Monitor = Komodo_core.Monitor
module Bugs = Komodo_core.Bugs
module Pagedb = Komodo_core.Pagedb
module Boot = Komodo_tz.Boot
module Rng = Komodo_tz.Rng
module Os = Komodo_os.Os
module Errors = Komodo_core.Errors
module Event = Komodo_telemetry.Event
module Sink = Komodo_telemetry.Sink
module Astate = Komodo_spec.Astate
module Aspec = Komodo_spec.Aspec
module Abs = Komodo_spec.Abs
module Cover = Komodo_spec.Cover
module Diff = Komodo_spec.Diff
module Campaign = Komodo_campaign.Campaign
module Trace_check = Komodo_spec.Trace_check
module Drive = Komodo_fault.Drive
module Imap = Map.Make (Int)

let test_abs_boot () =
  let os = Testlib.boot ~npages:16 () in
  let a = Abs.abs os.Os.mon in
  Alcotest.(check int) "npages" 16 a.Astate.plat.Astate.npages;
  for i = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "page %d free" i)
      true
      (Astate.get a i = Astate.Afree)
  done

let test_abs_built_enclave () =
  let os = Testlib.boot () in
  let os = Testlib.build_manual ~finalise:true os in
  let a = Abs.abs os.Os.mon in
  (match Astate.get a 0 with
  | Astate.Aaddrspace asp ->
      Alcotest.(check bool) "final" true (asp.Astate.st = Astate.Sfinal);
      Alcotest.(check int) "l1pt" 1 asp.Astate.l1pt;
      (* addrspace page itself excluded: l1, l2, data, thread *)
      Alcotest.(check int) "refcount" 4 asp.Astate.refcount;
      Alcotest.(check bool)
        "measurement is a digest" true
        (Astate.meas_digest asp.Astate.meas <> None)
  | p -> Alcotest.failf "page 0 is %s" (Astate.pp_page p));
  match Astate.get a 2 with
  | Astate.Al2 { slots; _ } ->
      Alcotest.(check bool) "code mapped at VA 0" true
        (match Imap.find_opt 0 slots with
        | Some (Astate.Psec (3, { w = false; x = true })) -> true
        | _ -> false)
  | p -> Alcotest.failf "page 2 is %s" (Astate.pp_page p)

let test_lockstep () =
  let o = Campaign.check ~jobs:1 ~trials:30 ~seed:42 () in
  (match o.Diff.divergence with
  | None -> ()
  | Some (tseed, ops, d) ->
      Alcotest.failf "divergence (trial seed %d, %d ops): %s" tseed (List.length ops)
        (Diff.pp_divergence d));
  Alcotest.(check (list int)) "every SMC exercised" [] (Cover.smc_deficit o.Diff.cover);
  Alcotest.(check (list int)) "every SVC exercised" [] (Cover.svc_deficit o.Diff.cover);
  Alcotest.(check bool)
    "at least 10 distinct error codes" true
    (List.length (Cover.errors_covered o.Diff.cover) >= 10)

let test_mutation bug () =
  let o = Campaign.check ~bug ~jobs:1 ~trials:60 ~seed:42 () in
  match o.Diff.divergence with
  | None -> Alcotest.failf "bug %s survived the checker" (Bugs.name bug)
  | Some (_, ops, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s shrunk to <= 6 calls (got %d)" (Bugs.name bug) (List.length ops))
        true
        (List.length ops <= 6)

(* A real lifecycle trace, captured via the telemetry sink, replays
   against the spec with no violations. *)
let lifecycle_events ?(prog = Komodo_user.Progs.add_args) () =
  let sink, collected = Sink.collect () in
  let os = Os.boot ~seed:0x7E57 ~npages:32 ~sink () in
  let os, h = Testlib.load_prog os prog in
  let th = List.hd h.Komodo_os.Loader.threads in
  let os, err, _ =
    Os.enter os ~thread:th ~args:(Word.of_int 1, Word.of_int 2, Word.of_int 3)
  in
  Testlib.check_err "enter" Errors.Success err;
  let _os, terr = Os.teardown os ~addrspace:h.Komodo_os.Loader.addrspace in
  Testlib.check_err "teardown" Errors.Success terr;
  collected ()

let test_replay_clean () =
  let events = lifecycle_events () in
  let r = Trace_check.replay ~npages:32 events in
  Alcotest.(check bool) "calls replayed" true (r.Trace_check.calls > 5);
  Alcotest.(check (list string))
    "no violations" []
    (List.map (fun (i, m) -> Printf.sprintf "%d: %s" i m) r.Trace_check.violations)

let test_replay_tampered () =
  let events = lifecycle_events () in
  (* Flip the first successful SMC exit to a failure the spec cannot
     explain. *)
  let flipped = ref false in
  let tampered =
    List.map
      (fun s ->
        match s.Event.ev with
        | Event.Smc_exit e when e.err = 0 && not !flipped ->
            flipped := true;
            { s with Event.ev = Event.Smc_exit { e with err = 8; err_name = "x" } }
        | _ -> s)
      events
  in
  let r = Trace_check.replay ~npages:32 tampered in
  Alcotest.(check bool) "tampering detected" true (r.Trace_check.violations <> [])

let test_replay_wrong_pages () =
  let events =
    [
      { Event.at = 0; ev = Event.Smc_entry { call = 1; name = "GetPhysPages"; args = [] } };
      {
        Event.at = 1;
        ev =
          Event.Smc_exit
            { call = 1; name = "GetPhysPages"; err = 0; err_name = "Success";
              retval = 64; cycles = 1 };
      };
    ]
  in
  let r = Trace_check.replay ~npages:32 events in
  Alcotest.(check bool) "page-count mismatch detected" true
    (r.Trace_check.violations <> [])

(* Replay [events] the way `check --replay` does: through a JSONL file. *)
let replay_via_file events =
  let path = Filename.temp_file "komodo_replay" ".jsonl" in
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Event.to_jsonl_line s ^ "\n")) events;
  close_out oc;
  let r = Trace_check.replay_file ~npages:32 path in
  Sys.remove path;
  r

(* Rewrite the first event [f] accepts. *)
let tamper_first f events =
  let hit = ref false in
  List.map
    (fun s ->
      if !hit then s
      else match f s with Some s' -> hit := true; s' | None -> s)
    events

let test_replay_inconsistent () =
  let events = lifecycle_events () in
  (match replay_via_file events with
  | Ok r -> Alcotest.(check int) "untampered trace refines" 0 (List.length r.Trace_check.violations)
  | Error e -> Alcotest.failf "untampered trace rejected: %s" e);
  let other_smc c = if c = Aspec.smc_remove then Aspec.smc_enter else Aspec.smc_remove in
  let other_svc c = if c = Aspec.svc_exit then Aspec.svc_get_random else Aspec.svc_exit in
  let tampers =
    [
      ("negative at", fun s -> Some { s with Event.at = -5 });
      ( "smc_entry named after another call",
        fun s ->
          match s.Event.ev with
          | Event.Smc_entry e ->
              Some { s with ev = Event.Smc_entry { e with name = Aspec.smc_name (other_smc e.call) } }
          | _ -> None );
      ( "smc_exit named after another call",
        fun s ->
          match s.Event.ev with
          | Event.Smc_exit e ->
              Some { s with ev = Event.Smc_exit { e with name = Aspec.smc_name (other_smc e.call) } }
          | _ -> None );
      ( "svc_entry named after another call",
        fun s ->
          match s.Event.ev with
          | Event.Svc_entry e ->
              Some { s with ev = Event.Svc_entry { e with name = Aspec.svc_name (other_svc e.call) } }
          | _ -> None );
      ( "svc_exit named after another call",
        fun s ->
          match s.Event.ev with
          | Event.Svc_exit e ->
              Some { s with ev = Event.Svc_exit { e with name = Aspec.svc_name (other_svc e.call) } }
          | _ -> None );
      ( "smc_exit err_name of another error",
        fun s ->
          match s.Event.ev with
          | Event.Smc_exit e ->
              Some { s with ev = Event.Smc_exit { e with err_name = Aspec.err_name (e.err + 1) } }
          | _ -> None );
      ( "svc_exit err_name of another error",
        fun s ->
          match s.Event.ev with
          | Event.Svc_exit e ->
              Some { s with ev = Event.Svc_exit { e with err_name = Aspec.err_name (e.err + 1) } }
          | _ -> None );
    ]
  in
  List.iter
    (fun (what, f) ->
      let tampered = tamper_first f events in
      Alcotest.(check bool) (what ^ ": trace changed") false (tampered = events);
      match replay_via_file tampered with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: inconsistent trace replayed" what)
    tampers

let prop_lockstep_random_seed =
  QCheck.Test.make ~count:15 ~name:"lockstep holds from arbitrary seeds"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let t = Diff.run_trial { Diff.default with ops_per_trial = 30 } ~seed in
      match t.Diff.t_divergence with
      | None -> true
      | Some d -> QCheck.Test.fail_report (Diff.pp_divergence d))

(* -- post-prelude templates ---------------------------------------- *)

let mon_of w = (Diff.initial_rstate w).Diff.os.Os.mon

(* A world without a sink is a fork of the domain's template; passing
   the null sink forces a fresh build. The two must be the same world,
   and the fresh one's RNG must be the bare boot's: a prelude that drew
   entropy would make every fork wrong. *)
let test_fork_equals_fresh () =
  List.iter
    (fun npages ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "%d pages, seed %d" npages seed in
          let fork = Diff.make_world ~npages ~seed () in
          let fresh = Diff.make_world ~npages ~sink:Sink.null ~seed () in
          let mf = mon_of fork and mr = mon_of fresh in
          let same field b = Alcotest.(check bool) (what ^ ": " ^ field) true b in
          same "machine state" (State.equal mf.Monitor.mach mr.Monitor.mach);
          same "PageDB" (Pagedb.equal mf.Monitor.pagedb mr.Monitor.pagedb);
          same "abstract state"
            (Astate.equal (Diff.initial_rstate fork).Diff.spec
               (Diff.initial_rstate fresh).Diff.spec);
          Alcotest.(check string)
            (what ^ ": attestation key") mr.Monitor.attest_key mf.Monitor.attest_key;
          same "RNG" (Rng.equal mf.Monitor.rng mr.Monitor.rng);
          same "the prelude draws no entropy"
            (Rng.equal mr.Monitor.rng (Boot.boot ~seed ~plat:mr.Monitor.plat ()).Boot.rng);
          Alcotest.(check (list string))
            (what ^ ": prelude coverage")
            (Cover.report (Diff.world_cover fresh))
            (Cover.report (Diff.world_cover fork));
          let ops = Diff.gen_ops fork ~seed ~n:40 in
          same "generated ops" (ops = Diff.gen_ops fresh ~seed ~n:40);
          let run w =
            let cover = Cover.create () in
            let r = Diff.run_ops ~cover w ops in
            (r, Cover.report cover)
          in
          let rf, cf = run fork and rr, cr = run fresh in
          same "outcome" (rf = rr);
          Alcotest.(check (list string)) (what ^ ": run coverage") cr cf)
        [ 1; 7; 42; 1009 ])
    [ 20; 40; 64 ]

let test_forks_independent () =
  let a = Diff.make_world ~seed:1 () in
  let template = Cover.report (Diff.world_cover a) in
  Cover.record_smc (Diff.world_cover a) ~call:Aspec.smc_stop ~err:Aspec.e_success;
  Alcotest.(check bool)
    "the recording landed" false
    (Cover.report (Diff.world_cover a) = template);
  let b = Diff.make_world ~seed:2 () in
  Alcotest.(check (list string))
    "a later fork's coverage is the template's" template
    (Cover.report (Diff.world_cover b));
  let exec w = (Diff.initial_rstate w).Diff.os.Os.exec in
  Alcotest.(check bool) "each fork has its own executor" false (exec a == exec b)

(* -- apply_op's bookkeeping -------------------------------------------- *)

(* [Pagedb.diff_types] as first written: a name map per PageDB, merged.
   The reference for the direct merge that replaced it. *)
let diff_types_ref before after =
  let tagged db =
    List.fold_left
      (fun m n ->
        match Pagedb.get db n with
        | Pagedb.Free -> m
        | e -> Imap.add n (Pagedb.type_name e) m)
      Imap.empty
      (List.init (Pagedb.npages db) Fun.id)
  in
  Imap.merge
    (fun _ tb ta ->
      let tb = Option.value tb ~default:"free" and ta = Option.value ta ~default:"free" in
      if String.equal tb ta then None else Some (tb, ta))
    (tagged before) (tagged after)
  |> Imap.bindings
  |> List.map (fun (n, (tb, ta)) -> (n, tb, ta))

let test_diff_types () =
  let changed = ref 0 in
  let agree what before after =
    let got = Pagedb.diff_types before after in
    if got <> [] then incr changed;
    Alcotest.(check (list (triple int string string))) what (diff_types_ref before after) got
  in
  let db rs = rs.Diff.os.Os.mon.Monitor.pagedb in
  List.iter
    (fun seed ->
      let w = Diff.make_world ~seed () in
      let rs0 = Diff.initial_rstate w in
      agree "unchanged PageDB" (db rs0) (db rs0);
      agree "type-preserving change" (db rs0) (Pagedb.bump_refcount (db rs0) 0 1);
      let last = Pagedb.npages (db rs0) - 1 in
      let ends =
        Pagedb.set (Pagedb.set (db rs0) 0 Pagedb.Free) last (Pagedb.SparePage { addrspace = 8 })
      in
      agree "first and last pages retyped" (db rs0) ends;
      let rec go rs i = function
        | [] -> ()
        | op :: rest -> (
            match Diff.apply_op rs i op with
            | Error d -> Alcotest.failf "seed %d: %s" seed (Diff.pp_divergence d)
            | Ok rs' ->
                let what = Printf.sprintf "seed %d op %d" seed i in
                agree what (db rs) (db rs');
                agree (what ^ " reversed") (db rs') (db rs);
                go rs' (i + 1) rest)
      in
      go rs0 0 (Diff.gen_ops w ~seed ~n:60))
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "some ops retype pages" true (!changed > 10)

let enter args = Diff.Smc { call = Aspec.smc_enter; args; budget = None }

(* Instruction-level fault injection makes the probe opaque: the spec
   cannot predict its SVC, so reconcile must adopt the page the SVC
   retyped, ending where the predicted probe does. *)
let test_opaque_probe_adopts () =
  let w = Diff.make_world ~seed:7 () in
  let rs = Diff.initial_rstate w in
  let op = enter [ Diff.probe_thread w; Aspec.svc_map_data; 6; 0x4003 ] in
  Alcotest.(check bool)
    "page 6 starts spare" true
    (Astate.get rs.Diff.spec 6 = Astate.Aspare { asp = 0 });
  match (Diff.apply_op ~opaque_probe:true rs 0 op, Diff.apply_op rs 0 op) with
  | Ok opaque, Ok predicted ->
      Alcotest.(check bool)
        "page 6 adopted as the probe's data page" true
        (Astate.get opaque.Diff.spec 6 = Astate.Adata { asp = 0 });
      Alcotest.(check bool)
        "the spec state is the implementation's abstraction" true
        (Astate.equal opaque.Diff.spec (Abs.abs opaque.Diff.os.Os.mon));
      Alcotest.(check bool)
        "and the predicted probe's" true
        (Astate.equal opaque.Diff.spec predicted.Diff.spec)
  | Error d, _ | _, Error d -> Alcotest.failf "probe Enter diverged: %s" (Diff.pp_divergence d)

(* A workload thread that exits changes nothing the spec cannot
   predict: the lockstep state is exactly the resolved spec. *)
let test_opaque_nothing_to_adopt () =
  let w = Diff.make_world ~seed:7 () in
  let rs = Diff.initial_rstate w in
  let args = [ 14; 3; 4; 0 ] in
  let resolved =
    match
      Aspec.step_smc rs.Diff.spec ~probe:(fun _ _ -> false) ~contents:None
        ~call:Aspec.smc_enter ~args
    with
    | Aspec.Pending p -> Aspec.resolve rs.Diff.spec p ~outcome:`Exit
    | Aspec.Done _ -> Alcotest.fail "a workload Enter is opaque to the spec"
  in
  match Diff.apply_op rs 0 (enter args) with
  | Error d -> Alcotest.failf "workload Enter diverged: %s" (Diff.pp_divergence d)
  | Ok rs' ->
      Alcotest.(check bool) "nothing adopted" true (Astate.equal rs'.Diff.spec resolved);
      Alcotest.(check bool)
        "the spec state is the implementation's abstraction" true
        (Astate.equal rs'.Diff.spec (Abs.abs rs'.Diff.os.Os.mon))

(* -- Campaign traces through the spec replay ----------------------------- *)

(* A trial world built fresh with a collecting sink, so its trace holds
   the prelude and every op. *)
let traced_world ?bug ~seed () =
  let sink, collected = Sink.collect () in
  let w = Diff.make_world ?bug ~npages:Diff.default.Diff.npages ~sink ~seed () in
  (w, collected)

let replay events = Trace_check.check ~npages:Diff.default.Diff.npages events

let replay_messages = function
  | Error e -> [ "malformed: " ^ e ]
  | Ok r -> List.map snd r.Trace_check.violations

let test_replay_campaign_traces () =
  let stepped = ref 0 in
  for seed = 0 to 19 do
    let w, collected = traced_world ~seed () in
    let ran = Diff.run_ops w (Diff.gen_ops w ~seed ~n:Diff.default.Diff.ops_per_trial) in
    Alcotest.(check bool) (Printf.sprintf "check trial %d refines" seed) true (Result.is_ok ran);
    let events = collected () in
    let r = replay events in
    Alcotest.(check (list string))
      (Printf.sprintf "check trial %d replays" seed)
      [] (replay_messages r);
    Alcotest.(check int)
      (Printf.sprintf "check trial %d decides every SVC" seed)
      0
      (match r with Ok r -> r.Trace_check.undecided | Error _ -> 0);
    (* SVCs other than Exit and ResumeFaulted are stepped through the spec. *)
    List.iter
      (fun s ->
        match s.Event.ev with
        | Event.Svc_entry { call; _ }
          when call <> Aspec.svc_exit && call <> Aspec.svc_resume_faulted ->
            incr stepped
        | _ -> ())
      events
  done;
  Alcotest.(check bool) "check trials step SVCs through the spec" true (!stepped > 0);
  let fault ?bug seed =
    let w, collected = traced_world ?bug ~seed () in
    let n = Drive.default.Drive.ops_per_trial in
    let fops = Drive.gen_fops w ~faults:Drive.all_classes ~seed ~n in
    let ran = Drive.run_fops w fops in
    (ran, replay_messages (replay (collected ())))
  in
  for seed = 0 to 29 do
    let ran, violations = fault seed in
    Alcotest.(check bool) (Printf.sprintf "fault trial %d holds" seed) true (Result.is_ok ran);
    Alcotest.(check (list string)) (Printf.sprintf "fault trial %d replays" seed) [] violations
  done;
  (* A Remove that frees the page but leaves the owner's refcount: the
     trace shows a retype the spec refuses. *)
  let caught = ref 0 in
  for seed = 0 to 59 do
    match fault ~bug:Bugs.Partial_remove seed with
    | Ok _, _ -> ()
    | Error _, violations ->
        incr caught;
        let surplus = "trace retypes the spec does not predict" in
        Alcotest.(check bool)
          (Printf.sprintf "partial_remove trial %d rejected (%s)" seed
             (String.concat " | " violations))
          true
          (List.exists (fun m -> String.starts_with ~prefix:surplus m) violations)
  done;
  Alcotest.(check bool) "partial_remove fires" true (!caught > 0);
  (* A drained entropy source is in no trace: a GetRandom reporting it
     is undecided, neither a pass nor a violation. *)
  let open Testlib in
  let r =
    Trace_check.replay ~npages:32
      (init_addrspace_events 0
      @ smc_events 1 Aspec.smc_init_thread [ 0; 2; 0 ] [ retype 2 "free" "thread" ]
      @ smc_events 2 Aspec.smc_finalise [ 0 ] [ lifecycle 0 Event.Ls_finalise ]
      @ smc_events 3 Aspec.smc_enter [ 2; 0; 0; 0 ]
          (lifecycle 0 Event.Ls_enter
          :: svc_events ~err:Aspec.e_entropy_exhausted Aspec.svc_get_random [ 0; 0 ] []))
  in
  Alcotest.(check int) "exhausted GetRandom undecided" 1 r.Trace_check.undecided;
  Alcotest.(check (list string)) "and no violation" [] (replay_messages (Ok r))

(* An enclave may retype its own spare page, but only from the type the
   spec holds: here the trace claims it was a data page. MapData(3, VA 0
   readable) succeeds, through the second-level table at page 4. *)
let test_replay_enclave_from_type () =
  let open Testlib in
  let trace data_from =
    init_addrspace_events 0
    @ smc_events 1 Aspec.smc_init_thread [ 0; 2; 0 ] [ retype 2 "free" "thread" ]
    @ smc_events 2 Aspec.smc_alloc_spare [ 0; 3 ] [ retype 3 "free" "sparepage" ]
    @ smc_events 3 Aspec.smc_init_l2ptable [ 0; 4; 0 ] [ retype 4 "free" "l2ptable" ]
    @ smc_events 4 Aspec.smc_finalise [ 0 ] [ lifecycle 0 Event.Ls_finalise ]
    @ smc_events 5 Aspec.smc_enter [ 2; 0; 0; 0 ]
        (lifecycle 0 Event.Ls_enter
        :: svc_events Aspec.svc_map_data [ 3; 1 ] [ retype 3 data_from "datapage" ])
  in
  let messages events =
    List.map snd (Trace_check.replay ~npages:32 events).Trace_check.violations
  in
  Alcotest.(check (list string)) "from its spec type" [] (messages (trace "sparepage"));
  Alcotest.(check (list string))
    "from another type"
    [
      "spec retypes not in trace: page 3: sparepage -> datapage";
      "trace retypes the spec does not predict: page 3: datapage -> datapage";
    ]
    (messages (trace "datapage"))

(* SVC events pair up and step through the spec: a GetRandom run's
   trace is refused when GetRandom is renamed a MapData (which the spec
   refuses with GetRandom's r1 and r2), when its exit names another
   call, or when its exit is missing. *)
let test_replay_svc_tampered () =
  let events = lifecycle_events ~prog:Komodo_user.Progs.random_word () in
  let rename call s =
    let name = Aspec.svc_name call in
    match s.Event.ev with
    | Event.Svc_entry e -> { s with Event.ev = Event.Svc_entry { e with call; name } }
    | Event.Svc_exit e -> { s with Event.ev = Event.Svc_exit { e with call; name } }
    | _ -> s
  in
  (* [f] rewrites GetRandom's entry and exit ([None] drops one). *)
  let tamper f =
    List.filter_map
      (fun s ->
        match s.Event.ev with
        | Event.Svc_entry { call; _ } when call = Aspec.svc_get_random -> f ~exit:false s
        | Event.Svc_exit { call; _ } when call = Aspec.svc_get_random -> f ~exit:true s
        | _ -> Some s)
      events
  in
  let messages events =
    List.map snd (Trace_check.replay ~npages:32 events).Trace_check.violations
  in
  Alcotest.(check (list string)) "as traced" [] (messages events);
  Alcotest.(check (list string))
    "renamed to MapData"
    [ "MapData error word: spec Page_in_use (2), trace Success (0)" ]
    (messages (tamper (fun ~exit:_ s -> Some (rename Aspec.svc_map_data s))));
  Alcotest.(check (list string))
    "exit renamed to InitL2PTable"
    [ "svc_exit InitL2PTable does not match svc_entry GetRandom" ]
    (messages
       (tamper (fun ~exit s -> Some (if exit then rename Aspec.svc_init_l2ptable s else s))));
  Alcotest.(check (list string))
    "exit deleted"
    [ "svc_entry inside open SVC GetRandom" ]
    (messages (tamper (fun ~exit s -> if exit then None else Some s)));
  Alcotest.(check (list string))
    "outside an enclave run"
    [ "svc_entry outside an enclave run" ]
    (messages
       (Testlib.smc_events ~retval:32 0 Aspec.smc_get_phys_pages []
          (Testlib.svc_events Aspec.svc_get_random [ 0; 0 ] [])))

let test_replay_backwards_stamp () =
  let events = lifecycle_events () in
  let n = List.length events in
  let prev = (List.nth events (n - 2)).Event.at in
  Alcotest.(check bool) "the clock has moved" true (prev > 0);
  let rewound = List.mapi (fun i s -> if i = n - 1 then { s with Event.at = 0 } else s) events in
  match replay_via_file rewound with
  | Ok _ -> Alcotest.fail "a trace whose clock runs backwards replayed"
  | Error e ->
      Alcotest.(check string) "names the stamp"
        (Printf.sprintf "event %d: cycle stamp 0 goes back from %d" (n - 1) prev)
        e

(* [Astate.diff] names pages and renders nothing: [] for one state
   against itself, page order, [-1] first when the page counts differ.
   An open transcript equals its own finalised digest, and two open
   transcripts are equal exactly when they finalise alike. *)
let test_diff_contract () =
  let boot n = Astate.boot (Abs.plat ~npages:n) in
  let spare n t = Astate.set t n (Astate.Aspare { asp = 0 }) in
  let b8 = boot 8 in
  Alcotest.(check (list int)) "a state against itself" [] (Astate.diff b8 b8);
  Alcotest.(check (list int)) "page order" [ 1; 3; 5 ]
    (Astate.diff b8 (b8 |> spare 5 |> spare 1 |> spare 3));
  Alcotest.(check (list int)) "page counts differ" [ -1; 3 ] (Astate.diff (spare 3 (boot 6)) b8);
  Alcotest.(check string) "a page count renders" "6 pages" (Astate.pp_at (boot 6) (-1));
  let asp meas =
    Astate.set b8 0 (Astate.Aaddrspace { l1pt = 1; refcount = 0; st = Astate.Sinit; meas })
  in
  let thread () = Astate.meas_add_thread Astate.meas_initial ~entry:0x1000 in
  Alcotest.(check (list int)) "open transcript = its finalised digest" []
    (Astate.diff (asp (thread ())) (asp (Astate.meas_finalise (thread ()))));
  Alcotest.(check (list int)) "equal open transcripts" []
    (Astate.diff (asp (thread ())) (asp (thread ())));
  Alcotest.(check (list int)) "different open transcripts" [ 0 ]
    (Astate.diff (asp (thread ())) (asp Astate.meas_initial))

(* A page divergence as the report prints it: the first one [check]
   finds with drop-refcount armed at seed 7. *)
let test_divergence_golden () =
  let o = Campaign.check ~bug:Bugs.Drop_refcount ~jobs:1 ~trials:100 ~seed:7 () in
  match o.Diff.divergence with
  | None -> Alcotest.fail "drop-refcount survived the checker"
  | Some (_, _, d) ->
      Alcotest.(check string) "divergence"
        "op 1: InitThread(0x14, 0x16, 0x0)\n\
        \  state divergence:\n\
        \    page 20: spec addrspace{l1pt=21;ref=1;init;meas=a008f20faed1}, impl \
         addrspace{l1pt=21;ref=2;init;meas=a008f20faed1}"
        (Diff.pp_divergence d)

(* The committed tamper of a [trace --file dynamic.kasm --spares 2]
   trace: its successful MapData and UnmapData rewritten to fail, with
   their retypes deleted. Stepping each SVC through the spec refutes
   both error words. *)
let test_replay_svc_error_words () =
  match Trace_check.replay_file ~npages:64 (Testlib.data_file "traces/svc_tampered.jsonl") with
  | Error e -> Alcotest.failf "committed trace malformed: %s" e
  | Ok r ->
      Alcotest.(check (list (pair int string)))
        "both error words"
        [
          (27, "MapData error word: spec Success (0), trace Addr_in_use (7)");
          (30, "UnmapData error word: spec Invalid_pageno (1), trace Invalid_mapping (6)");
        ]
        r.Trace_check.violations

let suite =
  [
    Alcotest.test_case "abstraction: fresh boot is all-free" `Quick test_abs_boot;
    Alcotest.test_case "abstraction: built enclave decodes" `Quick test_abs_built_enclave;
    Alcotest.test_case "lockstep: 30 trials, no divergence, full coverage" `Quick
      test_lockstep;
    Alcotest.test_case "mutation no-alias-check caught and shrunk" `Quick
      (test_mutation Bugs.No_alias_check);
    Alcotest.test_case "mutation no-monitor-image-check caught and shrunk" `Quick
      (test_mutation Bugs.No_monitor_image_check);
    Alcotest.test_case "mutation drop-refcount caught and shrunk" `Quick
      (test_mutation Bugs.Drop_refcount);
    Alcotest.test_case "replay: lifecycle trace refines the spec" `Quick
      test_replay_clean;
    Alcotest.test_case "replay: tampered trace rejected" `Quick test_replay_tampered;
    Alcotest.test_case "replay: wrong page count rejected" `Quick
      test_replay_wrong_pages;
    Alcotest.test_case "replay: inconsistent event fields rejected" `Quick
      test_replay_inconsistent;
    Testlib.qcheck prop_lockstep_random_seed;
    Alcotest.test_case "template: a fork equals a fresh build" `Quick
      test_fork_equals_fresh;
    Alcotest.test_case "template: forks share no mutable state" `Quick
      test_forks_independent;
    Alcotest.test_case "diff_types matches the two-map definition" `Quick
      test_diff_types;
    Alcotest.test_case "opaque probe Enter: reconcile adopts page 6" `Quick
      test_opaque_probe_adopts;
    Alcotest.test_case "opaque workload Enter: nothing to adopt" `Quick
      test_opaque_nothing_to_adopt;
    Alcotest.test_case "replay: check and fault trial traces refine the spec" `Quick
      test_replay_campaign_traces;
    Alcotest.test_case "replay: enclave retypes start from the spec's type" `Quick
      test_replay_enclave_from_type;
    Alcotest.test_case "replay: a backwards cycle stamp is malformed" `Quick
      test_replay_backwards_stamp;
    Alcotest.test_case "replay: SVC events pair up and retype what they may" `Quick
      test_replay_svc_tampered;
    Alcotest.test_case "monitor bug partial_remove caught and shrunk" `Quick
      (test_mutation Bugs.Partial_remove);
    Alcotest.test_case "Astate.diff: page numbers, in order, -1 first" `Quick
      test_diff_contract;
    Alcotest.test_case "divergence text: drop-refcount at seed 7" `Quick
      test_divergence_golden;
    Alcotest.test_case "replay: tampered SVC outcomes refuted by their error words" `Quick
      test_replay_svc_error_words;
  ]
