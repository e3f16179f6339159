(* The multi-core monitor: interleaved per-CPU execution under
   fine-grained per-page locking preserves the sequential monitor's
   semantics; the re-armable lock bugs break it observably. *)

open Testlib
module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Smp = Komodo_os.Smp
module Abi = Komodo_core.Abi
module Lock = Komodo_core.Lock
module Pagedb = Komodo_core.Pagedb
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors

let op call args = { Smp.call; args = List.map Word.of_int args }

let test_two_cores_build_disjoint_enclaves () =
  let os = boot ~npages:32 () in
  let s1 = Smp.build_script ~pages:(0, 1, 2, 3, 4) in
  let s2 = Smp.build_script ~pages:(10, 11, 12, 13, 14) in
  let o = Smp.run ~seed:7 os ~scripts:[ s1; s2 ] in
  List.iter
    (fun (core, rs) ->
      List.iteri
        (fun i (e, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "core %d call %d" core i)
            true (Errors.is_success e))
        rs)
    o.Smp.results;
  check_wf "after concurrent construction" o.Smp.os;
  Alcotest.(check int) "all calls ran" 10 o.Smp.stats.Smp.total_calls;
  Alcotest.(check bool) "no deadlock" true (o.Smp.deadlock = None);
  (* Both enclaves runnable afterwards. *)
  let os, e, v =
    Os.enter o.Smp.os ~thread:4 ~args:(Word.of_int 1, Word.of_int 2, Word.zero)
  in
  ignore v;
  (* The built enclave has an empty (zero) code page: entering faults,
     which is still a well-defined outcome. *)
  check_err "enclave 1 enters (faults on empty code)" Errors.Fault e;
  ignore os

let test_schedule_independence () =
  (* For disjoint scripts, the final PageDB must not depend on the
     interleaving. *)
  let final_db seed =
    let os = boot ~npages:32 () in
    let s1 = Smp.build_script ~pages:(0, 1, 2, 3, 4) in
    let s2 = Smp.build_script ~pages:(10, 11, 12, 13, 14) in
    let o = Smp.run ~seed os ~scripts:[ s1; s2 ] in
    o.Smp.os.Os.mon.Monitor.pagedb
  in
  let reference = final_db 1 in
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d agrees" seed)
        true
        (Pagedb.equal reference (final_db seed)))
    [ 2; 3; 4; 5; 6; 7; 8 ]

let test_conflicting_scripts_stay_consistent () =
  (* Two cores race for the same pages: exactly one wins each page, and
     the PageDB invariants hold regardless. *)
  let os = boot ~npages:32 () in
  let s = Smp.build_script ~pages:(0, 1, 2, 3, 4) in
  let o = Smp.run ~seed:13 os ~scripts:[ s; s ] in
  check_wf "after racing construction" o.Smp.os;
  (* The two cores' InitAddrspace results: one Success, one failure. *)
  let first_results = List.map (fun (_, rs) -> fst (List.hd rs)) o.Smp.results in
  let successes = List.filter Errors.is_success first_results in
  Alcotest.(check int) "exactly one winner" 1 (List.length successes)

let test_contention_accounting () =
  (* Two cores hammer the same two pages: every call locks {0, 1}, so
     the loser of each race spins. *)
  let many = List.init 10 (fun _ -> op Abi.smc_init_addrspace [ 0; 1 ]) in
  let os = boot ~npages:32 () in
  let o = Smp.run ~seed:3 os ~scripts:[ many; many ] in
  let st = o.Smp.stats in
  Alcotest.(check int) "all calls" 20 st.Smp.total_calls;
  Alcotest.(check bool) "contention observed" true (st.Smp.contended_acquisitions > 0);
  Alcotest.(check bool) "spins observed" true (st.Smp.spin_iterations > 0);
  Alcotest.(check int) "cycle identity"
    ((Smp.lock_cost * (st.Smp.contended_acquisitions + st.Smp.uncontended_acquisitions))
    + (Smp.spin_cost * st.Smp.spin_iterations))
    st.Smp.lock_cycles;
  (* A single core never contends and never spins. *)
  let os = boot ~npages:32 () in
  let o1 = Smp.run ~seed:3 os ~scripts:[ many ] in
  Alcotest.(check int) "solo core uncontended" 0 o1.Smp.stats.Smp.contended_acquisitions;
  Alcotest.(check int) "solo core never spins" 0 o1.Smp.stats.Smp.spin_iterations

let test_matches_sequential_execution () =
  (* One core through the SMP layer = plain sequential execution (minus
     lock cycles). *)
  let script = Smp.build_script ~pages:(0, 1, 2, 3, 4) in
  let os_smp = boot ~npages:32 () in
  let o = Smp.run ~seed:5 os_smp ~scripts:[ script ] in
  let os_seq = boot ~npages:32 () in
  let os_seq, seq_results =
    List.fold_left
      (fun (os, acc) (sop : Smp.call) ->
        let os, e, v = Os.smc os ~call:sop.Smp.call ~args:sop.Smp.args in
        (os, (e, v) :: acc))
      (os_seq, []) script
  in
  let seq_results = List.rev seq_results in
  Alcotest.(check bool) "same results" true (List.assoc 0 o.Smp.results = seq_results);
  Alcotest.(check bool) "same PageDB" true
    (Pagedb.equal o.Smp.os.Os.mon.Monitor.pagedb os_seq.Os.mon.Monitor.pagedb)

(* -- The re-armable lock bugs ------------------------------------------- *)

(* Two unfinalised addrspaces (pages 0+1+2 and 5+6+7), then each maps
   the same free page 3. Correct locking serialises on page 3's lock;
   with [Missing_page_lock] both footprints shrink to the (disjoint)
   addrspace locks, so both calls can validate page 3 free and both
   commit. *)
let racing_map_secure ?bug seed =
  let os = boot ~npages:32 () in
  let prelude os (asp, l1, l2) =
    let os, e1 = Os.init_addrspace os ~addrspace:asp ~l1pt:l1 in
    let os, e2 = Os.init_l2ptable os ~addrspace:asp ~l2pt:l2 ~l1index:0 in
    assert (Errors.is_success e1 && Errors.is_success e2);
    os
  in
  let os = prelude (prelude os (0, 1, 2)) (5, 6, 7) in
  let scripts =
    [ [ op Abi.smc_map_secure [ 0; 3; 0x1003; 0 ] ];
      [ op Abi.smc_map_secure [ 5; 3; 0x1003; 0 ] ] ]
  in
  Smp.run ~seed ?bug os ~scripts

let seeds = List.init 60 (fun i -> i + 1)

let test_missing_page_lock_corrupts () =
  let corrupted_with_bug =
    List.exists
      (fun seed -> not (wf (racing_map_secure ~bug:Smp.Missing_page_lock seed).Smp.os))
      seeds
  in
  Alcotest.(check bool) "missing page lock corrupts the PageDB" true corrupted_with_bug;
  (* Correct locking survives every one of those schedules, and exactly
     one MapSecure wins. *)
  List.iter
    (fun seed ->
      let o = racing_map_secure seed in
      check_wf (Printf.sprintf "correct locking, seed %d" seed) o.Smp.os;
      let wins =
        List.filter (fun (_, rs) -> Errors.is_success (fst (List.hd rs))) o.Smp.results
      in
      Alcotest.(check int) (Printf.sprintf "one winner, seed %d" seed) 1 (List.length wins))
    seeds

(* One enclave owning data page 3; one core MapSecures page 3 (footprint
   A0 then P3, ascending) while the other Removes it. [Lock_inversion]
   makes Remove acquire P3 before A0 — the classic AB/BA deadlock. *)
let map_vs_remove ?bug seed =
  let os = boot ~npages:32 () in
  let os, e1 = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  let os, e2 = Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0 in
  assert (Errors.is_success e1 && Errors.is_success e2);
  let os, e3, _ =
    Os.smc os ~call:Abi.smc_map_secure
      ~args:(List.map Word.of_int [ 0; 3; 0x1003; 0 ])
  in
  assert (Errors.is_success e3);
  let scripts =
    [ [ op Abi.smc_map_secure [ 0; 3; 0x2003; 0 ] ]; [ op Abi.smc_remove [ 3 ] ] ]
  in
  Smp.run ~seed ?bug os ~scripts

let test_lock_inversion_deadlocks () =
  let deadlocked =
    List.exists
      (fun seed -> (map_vs_remove ~bug:Smp.Lock_inversion seed).Smp.deadlock <> None)
      seeds
  in
  Alcotest.(check bool) "lock inversion deadlocks" true deadlocked;
  List.iter
    (fun seed ->
      let o = map_vs_remove seed in
      Alcotest.(check bool)
        (Printf.sprintf "ascending order never deadlocks, seed %d" seed)
        true (o.Smp.deadlock = None);
      check_wf (Printf.sprintf "consistent after race, seed %d" seed) o.Smp.os)
    seeds

let test_deadlock_cycle_shape () =
  (* The reported cycle is a genuine wait-for loop: each member wants a
     page some other member holds. *)
  let dl =
    List.find_map
      (fun seed -> (map_vs_remove ~bug:Smp.Lock_inversion seed).Smp.deadlock)
      seeds
  in
  match dl with
  | None -> Alcotest.fail "expected a deadlock"
  | Some { Smp.dl_cycle } ->
      Alcotest.(check bool) "cycle has >= 2 members" true (List.length dl_cycle >= 2);
      List.iter
        (fun w ->
          Alcotest.(check bool) "member wants a page" true (w.Smp.w_wants >= 0);
          Alcotest.(check bool) "wanted page held by another member" true
            (List.exists
               (fun w' -> w'.Smp.w_cpu <> w.Smp.w_cpu && List.mem w.Smp.w_wants w'.Smp.w_holds)
               dl_cycle))
        dl_cycle

(* -- qcheck: global lock-order consistency + cycle charging ------------- *)

let random_scripts_gen =
  QCheck.Gen.(
    pair (int_bound 10_000)
      (list_size (int_range 1 3)
         (list_size (int_range 1 8)
            (pair (int_range 1 13) (list_size (int_bound 4) (int_bound 31))))))

let random_scripts_arb =
  QCheck.make ~print:(fun (seed, _) -> Printf.sprintf "seed %d" seed) random_scripts_gen

let run_random (seed, raw) =
  let scripts = List.map (List.map (fun (call, args) -> op call args)) raw in
  let os = boot ~npages:32 () in
  Smp.run ~seed os ~scripts

let prop_lock_order_globally_consistent =
  QCheck.Test.make ~name:"observed lock acquisition order is globally consistent"
    ~count:40 random_scripts_arb
    (fun input ->
      let o = run_random input in
      o.Smp.deadlock = None && Lock.acyclic o.Smp.history)

let prop_cycle_charging_identity =
  QCheck.Test.make
    ~name:"lock cycles = lock_cost*acquisitions + spin_cost*spins" ~count:40
    random_scripts_arb
    (fun input ->
      let st = (run_random input).Smp.stats in
      st.Smp.lock_cycles
      = (Smp.lock_cost * (st.Smp.contended_acquisitions + st.Smp.uncontended_acquisitions))
        + (Smp.spin_cost * st.Smp.spin_iterations))

let prop_random_interleavings_wf =
  QCheck.Test.make ~name:"random interleavings preserve PageDB invariants" ~count:30
    random_scripts_arb
    (fun input -> wf (run_random input).Smp.os)

(* The smp oracle replays the monitor's trace through Trace_check,
   which compares r1 on every deterministic return: an error return
   carrying r1 = 7 where the spec returns 0 is a violation. *)
let test_replay_checks_r1_on_errors () =
  let module Aspec = Komodo_spec.Aspec in
  let module Trace_check = Komodo_spec.Trace_check in
  let a = Komodo_spec.Astate.boot (Komodo_spec.Abs.plat ~npages:8) in
  let call = Abi.smc_stop and args = [ 3 ] in
  let err =
    match Aspec.step_smc a ~probe:(fun _ _ -> false) ~contents:None ~call ~args with
    | Aspec.Done (_, err, 0) when err <> Abi.e_success -> err
    | _ -> Alcotest.fail "Stop on a free page should fail with r1 = 0"
  in
  let violations retval =
    List.length
      (Trace_check.replay ~npages:8 (smc_events ~err ~retval 0 call args []))
        .Trace_check.violations
  in
  Alcotest.(check int) "r1 = 0" 0 (violations 0);
  Alcotest.(check int) "r1 = 7" 1 (violations 7)

(* The exact witness raises no false violation: with correct locking
   the validation order of any clean trial replays through the spec. *)
let prop_clean_trials_linearise =
  let module Smpdrive = Komodo_fault.Smpdrive in
  QCheck.Test.make ~name:"clean trials replay in validation order" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) (int_range 1 12))
    (fun (seed, cpus, ops_per_cpu) ->
      let c = { Smpdrive.default with npages = 48; cpus; ops_per_cpu } in
      match Smpdrive.run_trial c ~seed with
      | Ok _ -> true
      | Error v -> QCheck.Test.fail_report (Smpdrive.pp_violation v))

let suite =
  [
    Alcotest.test_case "two cores, disjoint enclaves" `Quick test_two_cores_build_disjoint_enclaves;
    Alcotest.test_case "schedule independence" `Quick test_schedule_independence;
    Alcotest.test_case "racing scripts stay consistent" `Quick test_conflicting_scripts_stay_consistent;
    Alcotest.test_case "contention accounting" `Quick test_contention_accounting;
    Alcotest.test_case "single core = sequential" `Quick test_matches_sequential_execution;
    Alcotest.test_case "missing page lock corrupts" `Quick test_missing_page_lock_corrupts;
    Alcotest.test_case "lock inversion deadlocks" `Quick test_lock_inversion_deadlocks;
    Alcotest.test_case "deadlock cycle shape" `Quick test_deadlock_cycle_shape;
    Alcotest.test_case "replay checks r1 on error returns" `Quick test_replay_checks_r1_on_errors;
    Testlib.qcheck prop_lock_order_globally_consistent;
    Testlib.qcheck prop_cycle_charging_identity;
    Testlib.qcheck prop_random_interleavings_wf;
    Testlib.qcheck prop_clean_trials_linearise;
  ]
