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
  Alcotest.(check int) "owned count" 2 (Pagedb.count_owned db 0);
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
  ]
