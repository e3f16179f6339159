(* Page-table encoding, walking, and the writable-page enumeration the
   havoc model depends on. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Ptable = Komodo_machine.Ptable

let w = Word.of_int
let l1_base = w 0x40_0000
let l2_base = w 0x41_0000
let frame = w 0x42_0000

let test_l1e_roundtrip () =
  let e = Ptable.make_l1e ~l2pt_base:l2_base in
  Alcotest.(check (option int)) "decodes" (Some (Word.to_int l2_base))
    (Option.map Word.to_int (Ptable.decode_l1e e));
  Alcotest.(check (option reject)) "zero is absent" None (Ptable.decode_l1e Word.zero)

let test_l1e_unaligned () =
  Alcotest.check_raises "unaligned rejected"
    (Invalid_argument "Ptable.make_l1e: unaligned base") (fun () ->
      ignore (Ptable.make_l1e ~l2pt_base:(w 0x123)))

let test_l2e_roundtrip () =
  List.iter
    (fun (perms, ns) ->
      let e = Ptable.make_l2e ~base:frame ~ns perms in
      match Ptable.decode_l2e e with
      | Some (pa, ns', perms') ->
          Alcotest.(check int) "base" (Word.to_int frame) (Word.to_int pa);
          Alcotest.(check bool) "ns" ns ns';
          Alcotest.(check bool) "perms" true (Ptable.equal_perms perms perms')
      | None -> Alcotest.fail "entry does not decode")
    [ (Ptable.rw, false); (Ptable.r_only, true); (Ptable.rx, false); (Ptable.rwx, true) ]

let test_va_decomposition () =
  let va = w ((3 lsl 22) lor (7 lsl 12) lor 0x123) in
  Alcotest.(check int) "l1 index" 3 (Ptable.l1_index va);
  Alcotest.(check int) "l2 index" 7 (Ptable.l2_index va);
  Alcotest.(check int) "offset" 0x123 (Word.to_int (Ptable.page_offset va))

(* Build a small table in memory: VA 0x3000 -> frame (rw), VA 0x5000 ->
   frame+0x1000 (ro, ns). *)
let build_table () =
  let m = Memory.store Memory.empty (Word.add l1_base (w 0)) (Ptable.make_l1e ~l2pt_base:l2_base) in
  let m =
    Memory.store m
      (Word.add l2_base (w (4 * Ptable.l2_index (w 0x3000))))
      (Ptable.make_l2e ~base:frame ~ns:false Ptable.rw)
  in
  Memory.store m
    (Word.add l2_base (w (4 * Ptable.l2_index (w 0x5000))))
    (Ptable.make_l2e ~base:(Word.add frame (w 0x1000)) ~ns:true Ptable.r_only)

let test_translate_hit () =
  let m = build_table () in
  match Ptable.translate m ~ttbr:l1_base (w 0x3123) with
  | Some f ->
      Alcotest.(check int) "pa includes offset" (Word.to_int frame + 0x120)
        (Word.to_int (Word.align_down f.Ptable.pa));
      Alcotest.(check bool) "writable" true f.Ptable.perms.Ptable.w;
      Alcotest.(check bool) "secure" false f.Ptable.ns
  | None -> Alcotest.fail "translation missed"

let test_translate_ro_ns () =
  let m = build_table () in
  match Ptable.translate m ~ttbr:l1_base (w 0x5000) with
  | Some f ->
      Alcotest.(check bool) "read-only" false f.Ptable.perms.Ptable.w;
      Alcotest.(check bool) "ns" true f.Ptable.ns
  | None -> Alcotest.fail "translation missed"

let test_translate_misses () =
  let m = build_table () in
  Alcotest.(check bool) "unmapped page" true
    (Ptable.translate m ~ttbr:l1_base (w 0x7000) = None);
  Alcotest.(check bool) "absent l1 slot" true
    (Ptable.translate m ~ttbr:l1_base (w 0x40_0000) = None);
  Alcotest.(check bool) "beyond 1 GB limit" true
    (Ptable.translate m ~ttbr:l1_base (w 0x4000_0000) = None)

let test_writable_pages () =
  let m = build_table () in
  let writable = Ptable.writable_pages m ~ttbr:l1_base in
  Alcotest.(check int) "exactly the rw page" 1 (List.length writable);
  let va, pa, ns = List.hd writable in
  Alcotest.(check int) "va" 0x3000 (Word.to_int va);
  Alcotest.(check int) "pa" (Word.to_int frame) (Word.to_int pa);
  Alcotest.(check bool) "ns" false ns

let l1_slots m base =
  let acc = ref [] in
  Ptable.iter_l1 m base (fun i l2 -> acc := (i, l2) :: !acc);
  List.rev !acc

let l2_slots m base =
  let acc = ref [] in
  Ptable.iter_l2 m base (fun i pa ns perms -> acc := (i, (pa, ns, perms)) :: !acc);
  List.rev !acc

let test_walkers_two_leaves () =
  let m = build_table () in
  Alcotest.(check (list (pair int int))) "one first-level slot"
    [ (0, Word.to_int l2_base) ]
    (List.map (fun (i, l2) -> (i, Word.to_int l2)) (l1_slots m l1_base));
  Alcotest.(check (list string)) "both leaves, the ns one read-only"
    [ "3 420000 false { w = true; x = false }"; "5 421000 true { w = false; x = false }" ]
    (List.map
       (fun (i, (pa, ns, perms)) ->
         Printf.sprintf "%d %x %b %s" i (Word.to_int pa) ns (Ptable.show_perms perms))
       (l2_slots m l2_base))

(* The walkers read a table in place; the reference copies the table
   out with [load_range_array] and decodes every slot. Each generated
   memory has random words (some nonzero with both present bits clear)
   on four pages, one of them a page-aligned [copy_range] of another
   (so the two share a chunk), and is walked at every page start, at an
   absent page, and at a word-aligned base that straddles two pages. *)
let prop_walkers_match_decode =
  let region = w 0x40_0000 in
  let page n = Word.add region (w (n * Ptable.page_size)) in
  let word =
    QCheck.Gen.(
      map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF)
      >>= fun v -> oneofl [ v; (v lor 4) land lnot 3; 0 ])
  in
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 0 80)
           (triple (int_bound 3) (int_bound (Ptable.words_per_page - 1)) word))
        (pair (int_bound 3) (int_bound 3))
        (int_range 1 (Ptable.words_per_page - 1))
        (int_bound 3))
  in
  QCheck.Test.make ~count:200 ~name:"walkers = load_range_array + decode"
    (QCheck.make gen)
    (fun (stores, (src, dst), straddle, straddle_page) ->
      let m =
        List.fold_left
          (fun m (pg, i, v) -> Memory.store m (Word.add (page pg) (w (4 * i))) (w v))
          Memory.empty stores
      in
      let m = Memory.copy_range m ~src:(page src) ~dst:(page dst) Ptable.words_per_page in
      let decoded n decode base =
        Memory.load_range_array m base n
        |> Array.to_list
        |> List.mapi (fun i e -> Option.map (fun d -> (i, d)) (decode e))
        |> List.filter_map Fun.id
      in
      List.for_all
        (fun base ->
          l1_slots m base = decoded Ptable.l1_entries Ptable.decode_l1e base
          && l2_slots m base = decoded Ptable.l2_entries Ptable.decode_l2e base)
        [ page 0; page 1; page 2; page 3; page 4;
          Word.add (page straddle_page) (w (4 * straddle)) ])

let prop_l2e_roundtrip =
  QCheck.Test.make ~name:"l2e roundtrip"
    (QCheck.triple (QCheck.int_bound 0xFFFF) QCheck.bool (QCheck.pair QCheck.bool QCheck.bool))
    (fun (page, ns, (wr, x)) ->
      let base = Word.of_int (page * Ptable.page_size) in
      let perms = { Ptable.w = wr; x } in
      match Ptable.decode_l2e (Ptable.make_l2e ~base ~ns perms) with
      | Some (pa, ns', perms') ->
          Word.equal pa base && ns = ns' && Ptable.equal_perms perms perms'
      | None -> false)

let suite =
  [
    Alcotest.test_case "l1 entry roundtrip" `Quick test_l1e_roundtrip;
    Alcotest.test_case "l1 entry alignment" `Quick test_l1e_unaligned;
    Alcotest.test_case "l2 entry roundtrip" `Quick test_l2e_roundtrip;
    Alcotest.test_case "va decomposition" `Quick test_va_decomposition;
    Alcotest.test_case "translate hit" `Quick test_translate_hit;
    Alcotest.test_case "translate ro/ns" `Quick test_translate_ro_ns;
    Alcotest.test_case "translate misses" `Quick test_translate_misses;
    Alcotest.test_case "writable pages" `Quick test_writable_pages;
    Alcotest.test_case "walkers: two-leaf table" `Quick test_walkers_two_leaves;
    Testlib.qcheck prop_l2e_roundtrip;
    Testlib.qcheck prop_walkers_match_decode;
  ]
