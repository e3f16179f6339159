(* PageDB: allocation bookkeeping, refcounts, and the well-formedness
   checker (including that it detects each class of corruption). *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Ptable = Komodo_machine.Ptable
module Platform = Komodo_tz.Platform
module Pagedb = Komodo_core.Pagedb
module Measure = Komodo_core.Measure

let plat = Platform.make ~npages:16 ()

let addrspace ?(l1pt = 1) ?(refcount = 1) ?(state = Pagedb.Init)
    ?(measurement = Measure.initial) () =
  Pagedb.Addrspace { l1pt; refcount; state; measurement }

let final_measurement = Measure.finalise Measure.initial

let test_get_set () =
  let db = Pagedb.make ~npages:16 in
  Alcotest.(check bool) "initially free" true (Pagedb.is_free db 3);
  let db = Pagedb.set db 3 (Pagedb.SparePage { addrspace = 0 }) in
  Alcotest.(check bool) "now allocated" false (Pagedb.is_free db 3);
  let db = Pagedb.set db 3 Pagedb.Free in
  Alcotest.(check bool) "freed again" true (Pagedb.is_free db 3);
  Alcotest.check_raises "out of range" (Invalid_argument "Pagedb.get: page number out of range")
    (fun () -> ignore (Pagedb.get db 16))

let test_owner () =
  Alcotest.(check (option int)) "thread owner" (Some 5)
    (Pagedb.owner (Pagedb.Thread { addrspace = 5; entry_point = Word.zero; entered = false; ctx = None; dispatcher = None; fault_ctx = None }));
  Alcotest.(check (option reject)) "addrspace owns itself" None (Pagedb.owner (addrspace ()));
  Alcotest.(check (option reject)) "free unowned" None (Pagedb.owner Pagedb.Free)

let test_alloc_release_refcount () =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ~refcount:0 ()) in
  let db = Pagedb.alloc db 2 (Pagedb.DataPage { addrspace = 0 }) in
  let db = Pagedb.alloc db 3 (Pagedb.SparePage { addrspace = 0 }) in
  (match Pagedb.get db 0 with
  | Pagedb.Addrspace a -> Alcotest.(check int) "refcount bumped" 2 a.Pagedb.refcount
  | _ -> Alcotest.fail "addrspace vanished");
  Alcotest.(check int) "owned count" 2 (List.length (Pagedb.owned_pages db 0));
  let db = Pagedb.release db 2 in
  (match Pagedb.get db 0 with
  | Pagedb.Addrspace a -> Alcotest.(check int) "refcount dropped" 1 a.Pagedb.refcount
  | _ -> Alcotest.fail "addrspace vanished");
  Alcotest.(check bool) "page freed" true (Pagedb.is_free db 2)

let test_free_count () =
  let db = Pagedb.make ~npages:16 in
  Alcotest.(check int) "all free" 16 (Pagedb.free_count db);
  let db = Pagedb.set db 0 (addrspace ~refcount:0 ()) in
  Alcotest.(check int) "one allocated" 15 (Pagedb.free_count db)

(* -- Well-formedness ----------------------------------------------------- *)

(* A minimal consistent world: addrspace at 0, L1 table at 1 (empty). *)
let consistent_world () =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ()) in
  let db = Pagedb.set db 1 (Pagedb.L1PTable { addrspace = 0 }) in
  (db, Memory.empty)

let test_wf_accepts_consistent () =
  let db, mem = consistent_world () in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Pagedb.message) (Pagedb.check plat mem db))

let test_wf_detects_bad_l1pt () =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ~l1pt:2 ()) in
  let db = Pagedb.set db 2 (Pagedb.DataPage { addrspace = 0 }) in
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat Memory.empty db)

let test_wf_detects_refcount_drift () =
  let db, mem = consistent_world () in
  let db = Pagedb.set db 2 (Pagedb.DataPage { addrspace = 0 }) in
  (* refcount still 1, but the space owns 2 pages now *)
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat mem db)

let test_wf_detects_orphan () =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 3 (Pagedb.SparePage { addrspace = 9 }) in
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat Memory.empty db)

let test_wf_detects_entered_without_ctx () =
  let db, mem = consistent_world () in
  let db =
    Pagedb.bump_refcount
      (Pagedb.set db 2
         (Pagedb.Thread { addrspace = 0; entry_point = Word.zero; entered = true; ctx = None; dispatcher = None; fault_ctx = None }))
      0 1
  in
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat mem db)

let test_wf_detects_unfinalised_with_digest () =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ~measurement:final_measurement ()) in
  let db = Pagedb.set db 1 (Pagedb.L1PTable { addrspace = 0 }) in
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat Memory.empty db)

let test_wf_detects_cross_enclave_leaf () =
  (* Build a page table whose leaf points at a data page of another
     enclave — exactly the double-mapping the monitor must prevent. *)
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ~l1pt:1 ~refcount:3 ()) in
  let db = Pagedb.set db 1 (Pagedb.L1PTable { addrspace = 0 }) in
  let db = Pagedb.set db 2 (Pagedb.L2PTable { addrspace = 0 }) in
  let db = Pagedb.set db 3 (Pagedb.DataPage { addrspace = 0 }) in
  let db = Pagedb.set db 4 (addrspace ~l1pt:5 ~refcount:2 ()) in
  let db = Pagedb.set db 5 (Pagedb.L1PTable { addrspace = 4 }) in
  let db = Pagedb.set db 6 (Pagedb.DataPage { addrspace = 4 }) in
  let l1_base = Platform.page_base plat 1 in
  let l2_base = Platform.page_base plat 2 in
  let mem = Memory.store Memory.empty l1_base (Ptable.make_l1e ~l2pt_base:l2_base) in
  (* Leaf maps page 6 (other enclave) instead of page 3. *)
  let mem =
    Memory.store mem l2_base
      (Ptable.make_l2e ~base:(Platform.page_base plat 6) ~ns:false Ptable.rw)
  in
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat mem db);
  (* The same world with the leaf fixed is accepted. *)
  let mem_ok =
    Memory.store mem l2_base
      (Ptable.make_l2e ~base:(Platform.page_base plat 3) ~ns:false Ptable.rw)
  in
  Alcotest.(check bool) "fixed world accepted" true (Pagedb.wf plat mem_ok db)

let test_wf_detects_insecure_leaf_on_protected () =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ~l1pt:1 ~refcount:2 ()) in
  let db = Pagedb.set db 1 (Pagedb.L1PTable { addrspace = 0 }) in
  let db = Pagedb.set db 2 (Pagedb.L2PTable { addrspace = 0 }) in
  let l1_base = Platform.page_base plat 1 in
  let l2_base = Platform.page_base plat 2 in
  let mem = Memory.store Memory.empty l1_base (Ptable.make_l1e ~l2pt_base:l2_base) in
  (* NS leaf pointing into the monitor image. *)
  let mem =
    Memory.store mem l2_base
      (Ptable.make_l2e ~base:Komodo_tz.Layout.monitor_image_base ~ns:true Ptable.rw)
  in
  Alcotest.(check bool) "flagged" false (Pagedb.wf plat mem db)

(* -- Page-table content clauses, pinned by exact (page, message) lists -- *)

let check_violations name expected (db, mem) =
  Alcotest.(check (list (pair int string))) name expected
    (List.map (fun v -> (v.Pagedb.page, v.Pagedb.message)) (Pagedb.check plat mem db))

let pa = Platform.page_base plat
let slot n i = Word.add (pa n) (Word.of_int (4 * i))
let l1e n = Ptable.make_l1e ~l2pt_base:(pa n)
let leaf ?(ns = false) base = Ptable.make_l2e ~base ~ns Ptable.rw

(* Two well-formed spaces. Space 0: L1 table 1, L2 table 2, data page
   3, with L1 slot 0 -> page 2 and L2 slot 0 -> page 3. Space 4: L1
   table 5, L2 table 6, data page 7, tables empty. Each case stores a
   few words into this world. *)
let two_spaces ?(state = Pagedb.Init) ?(measurement = Measure.initial) words =
  let db = Pagedb.make ~npages:16 in
  let db = Pagedb.set db 0 (addrspace ~l1pt:1 ~refcount:3 ~state ~measurement ()) in
  let db = Pagedb.set db 1 (Pagedb.L1PTable { addrspace = 0 }) in
  let db = Pagedb.set db 2 (Pagedb.L2PTable { addrspace = 0 }) in
  let db = Pagedb.set db 3 (Pagedb.DataPage { addrspace = 0 }) in
  let db = Pagedb.set db 4 (addrspace ~l1pt:5 ~refcount:3 ()) in
  let db = Pagedb.set db 5 (Pagedb.L1PTable { addrspace = 4 }) in
  let db = Pagedb.set db 6 (Pagedb.L2PTable { addrspace = 4 }) in
  let db = Pagedb.set db 7 (Pagedb.DataPage { addrspace = 4 }) in
  let base = [ (slot 1 0, l1e 2); (slot 2 0, leaf (pa 3)) ] in
  (db, List.fold_left (fun m (a, v) -> Memory.store m a v) Memory.empty (base @ words))

let insecure_page = Word.of_int 0x0010_0000

let test_wf_table_clauses () =
  check_violations "well-formed" [] (two_spaces []);
  List.iter
    (fun (words, page, message) -> check_violations message [ (page, message) ] (two_spaces words))
    [
      ([ (slot 1 1, Ptable.make_l1e ~l2pt_base:insecure_page) ], 1,
       "first-level entry points outside secure region");
      ([ (slot 1 1, l1e 6) ], 1, "first-level entry crosses enclaves");
      ([ (slot 1 1, l1e 3) ], 1, "first-level entry maps a datapage page");
      ([ (slot 2 1, leaf ~ns:true Komodo_tz.Layout.monitor_image_base) ], 2,
       "insecure leaf maps protected memory");
      ([ (slot 2 1, leaf insecure_page) ], 2, "secure leaf outside secure region");
      ([ (slot 2 1, leaf (pa 7)) ], 2, "leaf maps a data page of another enclave");
      ([ (slot 2 1, leaf (pa 1)) ], 2, "leaf maps a l1ptable page as data");
    ]

(* Remove may free a second-level table before its first-level entry is
   gone; a stopped space is exempt from every table clause, a final one
   is not. *)
let test_wf_stopped_exemption () =
  let freed_l2 (db, mem) =
    let db = Pagedb.set db 2 Pagedb.Free in
    let db = Pagedb.bump_refcount db 0 (-1) in
    (db, mem)
  in
  let measurement = final_measurement in
  check_violations "stopped: dangling entry exempt" []
    (freed_l2 (two_spaces ~state:Pagedb.Stopped ~measurement []));
  check_violations "final: dangling entry flagged"
    [ (1, "first-level entry maps a free page") ]
    (freed_l2 (two_spaces ~state:Pagedb.Final ~measurement []))

let test_wf_bad_slots_in_order () =
  check_violations "two bad leaves, slot order"
    [ (2, "insecure leaf maps protected memory");
      (2, "leaf maps a data page of another enclave") ]
    (two_spaces
       [ (slot 2 700, leaf (pa 7));
         (slot 2 5, leaf ~ns:true Komodo_tz.Layout.monitor_image_base) ]);
  check_violations "a table's leaves before the next first-level slot"
    [ (2, "leaf maps a data page of another enclave");
      (1, "first-level entry crosses enclaves") ]
    (two_spaces [ (slot 1 1, l1e 6); (slot 2 9, leaf (pa 7)) ])

(* A corrupt page number in an entry is a violation, not an exception. *)
let test_wf_out_of_range_refs () =
  let world e = (Pagedb.set (Pagedb.make ~npages:16) 3 e, Memory.empty) in
  check_violations "Init l1pt 99"
    [ (3, "l1pt is not an L1PTable"); (3, "l1pt out of range") ]
    (world (addrspace ~l1pt:99 ~refcount:0 ()));
  check_violations "Stopped l1pt 99" [ (3, "l1pt out of range") ]
    (world
       (addrspace ~l1pt:99 ~refcount:0 ~state:Pagedb.Stopped
          ~measurement:final_measurement ()));
  List.iter
    (fun asp ->
      check_violations (Printf.sprintf "spare owned by %d" asp)
        [ (3, "owner is not an Addrspace") ]
        (world (Pagedb.SparePage { addrspace = asp })))
    [ 99; -1 ];
  check_violations "thread of space 99" [ (3, "thread's addrspace is not an Addrspace") ]
    (world
       (Pagedb.Thread
          { addrspace = 99; entry_point = Word.zero; entered = false; ctx = None;
            dispatcher = None; fault_ctx = None }))

let test_entry_equality () =
  let t1 = Pagedb.Thread { addrspace = 0; entry_point = Word.zero; entered = false; ctx = None; dispatcher = None; fault_ctx = None } in
  let t2 = Pagedb.Thread { addrspace = 0; entry_point = Word.zero; entered = false; ctx = None; dispatcher = None; fault_ctx = None } in
  Alcotest.(check bool) "equal threads" true (Pagedb.equal_entry t1 t2);
  let t3 = Pagedb.Thread { addrspace = 0; entry_point = Word.one; entered = false; ctx = None; dispatcher = None; fault_ctx = None } in
  Alcotest.(check bool) "entry point distinguishes" false (Pagedb.equal_entry t1 t3);
  Alcotest.(check bool) "type distinguishes" false
    (Pagedb.equal_entry t1 (Pagedb.DataPage { addrspace = 0 }))

(* -- The one-pass check against its reference ---------------------------- *)

(* [Pagedb.check] as it stood before refcounts were counted in one pass
   and tables walked to their last stored word: each space's owned
   pages listed and counted, and every slot of every table read with
   [Memory.load]. The check must return this list, in this order, with
   these messages. The two clauses no [Pagedb.set] can reach (a stored
   [Free], a page number out of range) are left out. *)
let reference_check plat mem db =
  let bad = ref [] in
  let err page message = bad := (page, message) :: !bad in
  let page_pa = Platform.page_base plat in
  let entry n = if Pagedb.valid_pagenr db n then Pagedb.get db n else Pagedb.Free in
  let iter_present base slots bit f =
    for i = 0 to slots - 1 do
      let e = Memory.load mem (Word.add base (Word.of_int (4 * i))) in
      if Word.bit e bit then f e
    done
  in
  for n = 0 to Pagedb.npages db - 1 do
    match Pagedb.get db n with
    | Pagedb.Free -> ()
    | Pagedb.Addrspace a -> begin
        (match entry a.Pagedb.l1pt with
        | Pagedb.L1PTable { addrspace } when addrspace = n -> ()
        | _ when Pagedb.equal_addrspace_state a.Pagedb.state Pagedb.Stopped -> ()
        | Pagedb.L1PTable _ -> err n "l1pt owned by another address space"
        | _ -> err n "l1pt is not an L1PTable");
        let count_owned n = List.length (Pagedb.owned_pages db n) in
        if a.Pagedb.refcount <> count_owned n then
          err n
            (Printf.sprintf "refcount %d but owns %d pages" a.Pagedb.refcount
               (count_owned n));
        match (a.Pagedb.state, Measure.digest a.Pagedb.measurement) with
        | Pagedb.Init, Some _ -> err n "unfinalised space with measurement digest"
        | (Pagedb.Final | Pagedb.Stopped), None -> err n "final space lacking measurement"
        | _ -> ()
      end
    | Pagedb.Thread th -> begin
        (match entry th.Pagedb.addrspace with
        | Pagedb.Addrspace _ -> ()
        | _ -> err n "thread's addrspace is not an Addrspace");
        (match (th.Pagedb.entered, th.Pagedb.ctx) with
        | true, None -> err n "entered thread without saved context"
        | false, Some _ -> err n "idle thread with stale context"
        | _ -> ());
        List.iter
          (function
            | Some c when List.length c.Pagedb.regs <> 15 ->
                err n "thread context must hold 15 registers"
            | _ -> ())
          [ th.Pagedb.ctx; th.Pagedb.fault_ctx ]
      end
    | Pagedb.L1PTable { addrspace }
    | Pagedb.L2PTable { addrspace }
    | Pagedb.DataPage { addrspace }
    | Pagedb.SparePage { addrspace } -> (
        match entry addrspace with
        | Pagedb.Addrspace _ -> ()
        | _ -> err n "owner is not an Addrspace")
  done;
  List.iter
    (fun (asn, (a : Pagedb.addrspace_info)) ->
      if not (Pagedb.valid_pagenr db a.l1pt) then err asn "l1pt out of range"
      else if not (Pagedb.equal_addrspace_state a.state Pagedb.Stopped) then
        iter_present (page_pa a.l1pt) Ptable.l1_entries 0 (fun e ->
            let l2_base = Ptable.page_base e in
            match Platform.page_of_pa plat l2_base with
            | None -> err a.l1pt "first-level entry points outside secure region"
            | Some l2n -> (
                match entry l2n with
                | Pagedb.L2PTable { addrspace } when addrspace = asn ->
                    iter_present l2_base Ptable.l2_entries 1 (fun e ->
                        let pa = Ptable.page_base e in
                        if Word.bit e 3 then begin
                          if not (Platform.is_valid_insecure plat pa) then
                            err l2n "insecure leaf maps protected memory"
                        end
                        else
                          match Platform.page_of_pa plat pa with
                          | None -> err l2n "secure leaf outside secure region"
                          | Some dn -> (
                              match entry dn with
                              | Pagedb.DataPage { addrspace } when addrspace = asn -> ()
                              | Pagedb.DataPage _ ->
                                  err l2n "leaf maps a data page of another enclave"
                              | e ->
                                  err l2n
                                    (Printf.sprintf "leaf maps a %s page as data"
                                       (Pagedb.type_name e))))
                | Pagedb.L2PTable _ -> err a.l1pt "first-level entry crosses enclaves"
                | e ->
                    err a.l1pt
                      (Printf.sprintf "first-level entry maps a %s page" (Pagedb.type_name e)))))
    (Pagedb.all_addrspaces db);
  List.rev !bad

let agree_with_reference name plat mem db =
  Alcotest.(check (list (pair int string))) name (reference_check plat mem db)
    (List.map (fun v -> (v.Pagedb.page, v.Pagedb.message)) (Pagedb.check plat mem db))

module Aspec = Komodo_spec.Aspec
module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Inject = Komodo_fault.Inject
module Monitor = Komodo_core.Monitor
module State = Komodo_machine.State
module Os = Komodo_os.Os

(* Every post-op monitor of a clean lockstep trial: a [check] trial's
   ops, or a [fault] trial's with each op's injections armed and the
   oracle overrides [Drive.run_fops] derives from them. *)
let trial_states ~faults ~seed =
  let w = Diff.make_world ~npages:40 ~seed () in
  let rs0 = Diff.initial_rstate w in
  let os = rs0.Diff.os in
  let inj = Inject.create ~plat:os.Os.mon.Monitor.plat () in
  let os =
    {
      os with
      Os.mon = { os.Os.mon with Monitor.inject = Some (Inject.hook inj) };
      exec = Komodo_user.Verifier.executor ~inject:(Inject.exec_inject inj) ();
    }
  in
  let fops =
    if faults then Drive.gen_fops w ~faults:Drive.all_classes ~seed ~n:40
    else List.map (fun op -> Drive.Op { op; inj = [] }) (Diff.gen_ops w ~seed ~n:40)
  in
  let at_commit items pred =
    List.exists (fun i -> i.Inject.point = Inject.Commit && pred i.Inject.action) items
  in
  let step (rs, i, acc) = function
    | Drive.Crash { seed } ->
        let os = Os.crash_reboot ~seed rs.Diff.os in
        ({ rs with Diff.os }, i + 1, os.Os.mon :: acc)
    | Drive.Op { op; inj = items } -> (
        let exec =
          match op with
          | Diff.Smc { call; _ } -> call = Aspec.smc_enter || call = Aspec.smc_resume
          | Diff.Write_ins _ -> false
        in
        Inject.arm inj items;
        let r =
          Diff.apply_op
            ~opaque_contents:(at_commit items (function Inject.Mem_write _ -> true | _ -> false))
            ~opaque_probe:
              (List.exists (fun it -> match it.Inject.point with Inject.Insn _ -> true | _ -> false) items
              || exec && at_commit items (function Inject.Irq | Inject.Fiq -> true | _ -> false))
            ?rng_exhausted:
              (if at_commit items (( = ) Inject.Rng_exhaust) then Some true else None)
            rs i op
        in
        Inject.disarm inj;
        match r with
        | Ok rs' -> (rs', i + 1, rs'.Diff.os.Os.mon :: acc)
        | Error d -> Alcotest.failf "seed %d: %s" seed (Diff.pp_divergence d))
  in
  let _, _, states = List.fold_left step ({ rs0 with Diff.os = os }, 0, []) fops in
  List.rev states

let test_check_matches_reference_on_trials () =
  let refcounts = ref 0 in
  List.iter
    (fun (faults, seed) ->
      List.iteri
        (fun i (m : Monitor.t) ->
          let plat = m.Monitor.plat and mem = m.Monitor.mach.State.mem in
          let db = m.Monitor.pagedb in
          let name = Printf.sprintf "%s seed %d op %d" (if faults then "fault" else "check") seed i in
          agree_with_reference name plat mem db;
          (* Each space's refcount off by one, in turn. *)
          List.iter
            (fun (asn, _) ->
              incr refcounts;
              agree_with_reference
                (Printf.sprintf "%s, space %d's refcount bumped" name asn)
                plat mem (Pagedb.bump_refcount db asn 1))
            (Pagedb.all_addrspaces db))
        (trial_states ~faults ~seed))
    [ (false, 1); (false, 7); (true, 7); (true, 42); (true, 1009) ];
  Alcotest.(check bool) "trials build address spaces" true (!refcounts > 100)

let test_check_matches_reference_on_corruptions () =
  let cases =
    [
      ("refcount off by one", (fun (db, mem) -> (Pagedb.bump_refcount db 4 (-1), mem)), []);
      ("first-level entry into another space's table", Fun.id, [ (slot 1 255, l1e 6) ]);
      ("leaf maps another enclave's data page", Fun.id, [ (slot 2 1023, leaf (pa 7)) ]);
      ("insecure leaf into the monitor image", Fun.id,
       [ (slot 2 1, leaf ~ns:true Komodo_tz.Layout.monitor_image_base) ]);
      ("page owned by a non-addrspace",
       (fun (db, mem) -> (Pagedb.set db 8 (Pagedb.SparePage { addrspace = 3 }), mem)), []);
    ]
  in
  List.iter
    (fun (name, corrupt, words) ->
      let db, mem = corrupt (two_spaces words) in
      Alcotest.(check bool) (name ^ ": flagged") false (Pagedb.wf plat mem db);
      agree_with_reference name plat mem db)
    cases;
  (* All of them at once, so their order is pinned too. *)
  let db, mem =
    List.fold_left
      (fun w (_, corrupt, _) -> corrupt w)
      (two_spaces (List.concat_map (fun (_, _, words) -> words) cases))
      cases
  in
  agree_with_reference "every corruption at once" plat mem db

(* An entry rebuilt field by field: equal, but not physically equal. *)
let rebuild_entry = function
  | Pagedb.Free -> Pagedb.Free
  | Pagedb.Addrspace a -> Pagedb.Addrspace { a with Pagedb.l1pt = a.Pagedb.l1pt }
  | Pagedb.Thread th -> Pagedb.Thread { th with Pagedb.addrspace = th.Pagedb.addrspace }
  | Pagedb.L1PTable { addrspace } -> Pagedb.L1PTable { addrspace }
  | Pagedb.L2PTable { addrspace } -> Pagedb.L2PTable { addrspace }
  | Pagedb.DataPage { addrspace } -> Pagedb.DataPage { addrspace }
  | Pagedb.SparePage { addrspace } -> Pagedb.SparePage { addrspace }

let rebuild ?(edit = fun _ e -> e) db =
  let n = Pagedb.npages db in
  List.fold_left
    (fun acc p -> Pagedb.set acc p (edit p (rebuild_entry (Pagedb.get db p))))
    (Pagedb.make ~npages:n) (List.init n Fun.id)

let test_equal_shared_and_rebuilt () =
  let m = List.nth (trial_states ~faults:false ~seed:7) 39 in
  let db = m.Monitor.pagedb in
  let check name expected a b = Alcotest.(check bool) name expected (Pagedb.equal a b) in
  check "physically equal" true db db;
  check "rebuilt copy" true db (rebuild db);
  let asn, _ = List.hd (Pagedb.all_addrspaces db) in
  check "a shared copy with one refcount changed" false db (Pagedb.bump_refcount db asn 1);
  let edit_space p = function
    | Pagedb.Addrspace a when p = asn -> Pagedb.Addrspace { a with Pagedb.refcount = a.Pagedb.refcount + 1 }
    | e -> e
  in
  check "a rebuilt copy with one refcount changed" false db (rebuild ~edit:edit_space db);
  let th_pg =
    List.find
      (fun p -> match Pagedb.get db p with Pagedb.Thread _ -> true | _ -> false)
      (List.init (Pagedb.npages db) Fun.id)
  in
  let edit_thread p = function
    | Pagedb.Thread th when p = th_pg ->
        Pagedb.Thread { th with Pagedb.entry_point = Word.add th.Pagedb.entry_point Word.one }
    | e -> e
  in
  check "a rebuilt copy with one entry point changed" false db (rebuild ~edit:edit_thread db)

let suite =
  [
    Alcotest.test_case "get/set" `Quick test_get_set;
    Alcotest.test_case "ownership" `Quick test_owner;
    Alcotest.test_case "alloc/release refcounts" `Quick test_alloc_release_refcount;
    Alcotest.test_case "free count" `Quick test_free_count;
    Alcotest.test_case "wf accepts consistent state" `Quick test_wf_accepts_consistent;
    Alcotest.test_case "wf: bad l1pt" `Quick test_wf_detects_bad_l1pt;
    Alcotest.test_case "wf: refcount drift" `Quick test_wf_detects_refcount_drift;
    Alcotest.test_case "wf: orphan page" `Quick test_wf_detects_orphan;
    Alcotest.test_case "wf: entered thread without ctx" `Quick test_wf_detects_entered_without_ctx;
    Alcotest.test_case "wf: premature digest" `Quick test_wf_detects_unfinalised_with_digest;
    Alcotest.test_case "wf: cross-enclave leaf" `Quick test_wf_detects_cross_enclave_leaf;
    Alcotest.test_case "wf: insecure leaf on protected memory" `Quick test_wf_detects_insecure_leaf_on_protected;
    Alcotest.test_case "wf: every table clause, exact" `Quick test_wf_table_clauses;
    Alcotest.test_case "wf: stopped space's dangling table" `Quick test_wf_stopped_exemption;
    Alcotest.test_case "wf: bad slots in slot order" `Quick test_wf_bad_slots_in_order;
    Alcotest.test_case "wf: out-of-range references" `Quick test_wf_out_of_range_refs;
    Alcotest.test_case "entry equality" `Quick test_entry_equality;
    Alcotest.test_case "check matches its reference on trial states" `Quick
      test_check_matches_reference_on_trials;
    Alcotest.test_case "check matches its reference on corruptions" `Quick
      test_check_matches_reference_on_corruptions;
    Alcotest.test_case "equal: shared, rebuilt and edited copies" `Quick
      test_equal_shared_and_rebuilt;
  ]
