(* Model-equivalence suite for the page-granular memory.

   [Memory_ref] is the seed per-word map implementation, kept verbatim.
   Random op sequences must leave the two representations semantically
   equal, with agreeing observations ([to_bytes_be], [equal_range],
   [fold], [load], [cardinal]), including across the canonicalisation
   edge cases: storing zero erases, whole-page scrubs, overlapping
   copies, restriction. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Sha256 = Komodo_crypto.Sha256
module Ref = Memory_ref

let w = Word.of_int

(* The op arena: five pages starting at this base, so ranges cross page
   boundaries both ways. A high base exercises 32-bit address
   wraparound in the segment walker. *)
let arena_pages = 5
let arena_words = arena_pages * 1024

type op =
  | Store of int * int  (* word index in arena, value *)
  | Zero of int * int  (* word index, word count *)
  | Copy of int * int * int  (* src index, dst index, word count *)
  | Of_bytes of int * string  (* word index, 4k-multiple string *)
  | Restrict of int  (* drop nonzero words with (addr/4 + salt) mod 3 = 0 *)

let pp_op = function
  | Store (i, v) -> Printf.sprintf "store %d 0x%x" i v
  | Zero (i, n) -> Printf.sprintf "zero %d %d" i n
  | Copy (s, d, n) -> Printf.sprintf "copy %d->%d %d" s d n
  | Of_bytes (i, s) -> Printf.sprintf "of_bytes %d len=%d" i (String.length s)
  | Restrict salt -> Printf.sprintf "restrict salt=%d" salt

let gen_op =
  let open QCheck.Gen in
  let idx = int_bound (arena_words - 1) in
  (* Values weighted toward zero: canonical-form transitions are the
     interesting cases. *)
  let value = oneof [ return 0; int_bound 0xFF; int_bound 0xFFFF_FFF ] in
  let count = oneof [ int_bound 8; int_bound 1500; return 1024; return 2048 ] in
  frequency
    [
      (5, map2 (fun i v -> Store (i, v)) idx value);
      (2, map2 (fun i n -> Zero (i, min n (arena_words - i))) idx count);
      ( 2,
        map3
          (fun s d n -> Copy (s, d, min n (arena_words - max s d)))
          idx idx count );
      ( 1,
        map2
          (fun i bytes -> Of_bytes (i, bytes))
          (int_bound (arena_words - 64))
          (map
             (fun chars ->
               String.concat "" (List.map (String.make 4) chars))
             (list_size (int_range 1 16) (map Char.chr (int_bound 255)))) );
      (1, map (fun salt -> Restrict salt) (int_bound 2));
    ]

let arb_seq base_choice =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_op)
  |> fun a -> QCheck.pair (QCheck.make base_choice) a

(* Arena bases: a low one and one whose last page wraps around 2^32. *)
let gen_base =
  QCheck.Gen.oneofl [ 0x0; 0x4000; 0xFFFF_E000 ]

let addr base i = w ((base + (4 * i)) land 0xFFFF_FFFF)

let apply_new base m = function
  | Store (i, v) -> Memory.store m (addr base i) (w v)
  | Zero (i, n) -> Memory.zero_range m (addr base i) n
  | Copy (s, d, n) -> Memory.copy_range m ~src:(addr base s) ~dst:(addr base d) n
  | Of_bytes (i, s) -> Memory.of_bytes_be m (addr base i) s
  | Restrict salt -> Memory.restrict m ~f:(fun a -> ((a / 4) + salt) mod 3 <> 0)

let apply_ref base m = function
  | Store (i, v) -> Ref.store m (addr base i) (w v)
  | Zero (i, n) -> Ref.zero_range m (addr base i) n
  | Copy (s, d, n) -> Ref.copy_range m ~src:(addr base s) ~dst:(addr base d) n
  | Of_bytes (i, s) -> Ref.of_bytes_be m (addr base i) s
  | Restrict salt -> Ref.restrict m ~f:(fun a -> ((a / 4) + salt) mod 3 <> 0)

let check_agree base m r =
  (* Whole-arena serialisation agrees. *)
  let mb = Memory.to_bytes_be m (addr base 0) arena_words in
  let rb = Ref.to_bytes_be r (addr base 0) arena_words in
  if not (String.equal mb rb) then QCheck.Test.fail_report "to_bytes_be differs";
  (* Folds see the same nonzero words in the same order. *)
  let fm = List.rev (Memory.fold (fun a v acc -> (a, v) :: acc) m []) in
  let fr = List.rev (Ref.fold (fun a v acc -> (a, v) :: acc) r []) in
  if fm <> fr then QCheck.Test.fail_report "fold differs";
  if Memory.cardinal m <> Ref.cardinal r then
    QCheck.Test.fail_report "cardinal differs";
  true

let test_model_equivalence =
  QCheck.Test.make ~count:1200 ~name:"random op sequences agree with reference"
    (arb_seq gen_base)
    (fun (base, ops) ->
      let m, r =
        List.fold_left
          (fun (m, r) op -> (apply_new base m op, apply_ref base r op))
          (Memory.empty, Ref.empty) ops
      in
      check_agree base m r)

let test_equal_and_ranges =
  QCheck.Test.make ~count:400
    ~name:"equal / equal_range track the reference across prefixes"
    (QCheck.pair (arb_seq gen_base) QCheck.small_nat)
    (fun (((base, ops), cut) : (int * op list) * int) ->
      let cut = cut mod (List.length ops + 1) in
      let run ops =
        List.fold_left
          (fun (m, r) op -> (apply_new base m op, apply_ref base r op))
          (Memory.empty, Ref.empty) ops
      in
      let m1, r1 = run (List.filteri (fun i _ -> i < cut) ops) in
      let m2, r2 = run ops in
      if Memory.equal m1 m2 <> Ref.equal r1 r2 then
        QCheck.Test.fail_report "equal differs from reference";
      (* sampled windows, including page-spanning ones *)
      List.iter
        (fun (off, n) ->
          if
            Memory.equal_range m1 m2 (addr base off) n
            <> Ref.equal_range r1 r2 (addr base off) n
          then QCheck.Test.fail_report "equal_range differs from reference")
        [ (0, 64); (1000, 100); (0, arena_words); (2047, 2); (4096, 1024) ];
      true)

let test_load_range_array =
  QCheck.Test.make ~count:300 ~name:"load_range_array agrees with load_range"
    (arb_seq gen_base)
    (fun (base, ops) ->
      let m = List.fold_left (fun m op -> apply_new base m op) Memory.empty ops in
      List.for_all
        (fun (off, n) ->
          Array.to_list (Memory.load_range_array m (addr base off) n)
          = Memory.load_range m (addr base off) n)
        [ (0, 0); (17, 40); (1000, 2000); (5119, 1) ])

let test_absorb_range =
  QCheck.Test.make ~count:300
    ~name:"absorb_range + absorb_words = absorb of to_bytes_be"
    (arb_seq gen_base)
    (fun (base, ops) ->
      let m = List.fold_left (fun m op -> apply_new base m op) Memory.empty ops in
      List.for_all
        (fun (off, n) ->
          let direct =
            Memory.absorb_range m (addr base off) n ~init:Sha256.init
              ~f:Sha256.absorb_words
          in
          let via_string =
            Sha256.absorb Sha256.init (Memory.to_bytes_be m (addr base off) n)
          in
          Sha256.equal_ctx direct via_string
          && String.equal (Sha256.finalize direct) (Sha256.finalize via_string))
        [ (0, 1024); (100, 999); (1024, 2048); (5, 3) ])

let test_absorb_word =
  QCheck.Test.make ~count:300 ~name:"absorb_word = absorb of word bytes"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (0 -- 0xFFFFFFF))
    (fun vs ->
      let words = List.map w vs in
      let a = List.fold_left Sha256.absorb_word Sha256.init words in
      let b =
        List.fold_left
          (fun c v -> Sha256.absorb c (Word.to_bytes_be v))
          Sha256.init words
      in
      Sha256.equal_ctx a b && String.equal (Sha256.finalize a) (Sha256.finalize b))

(* -- Owners ---------------------------------------------------------------

   Stores through an owner write its own chunks in place until release.
   Sequences mix owned stores, plain stores, whole-page copies (which
   share a chunk) and releases; a release takes the memory, and later
   owned stores go either through a fresh owner or on through the
   released one. Every memory taken must still read as the reference
   did when it was taken, after all the owned stores that followed.
   Slots are a few words on each of three pages and values lean to
   zero, so pages are often emptied and re-created. *)

type owned_op =
  | Owned of int * int  (* slot, value *)
  | Plain of int * int
  | Copy_page of int * int  (* source page, destination page *)
  | Release of bool  (* then store through a fresh owner? *)

let pp_owned_op = function
  | Owned (k, v) -> Printf.sprintf "owned %d 0x%x" k v
  | Plain (k, v) -> Printf.sprintf "plain %d 0x%x" k v
  | Copy_page (s, d) -> Printf.sprintf "copy page %d->%d" s d
  | Release fresh -> if fresh then "release, new owner" else "release"

let owner_pages = 3
let slot_words = [| 0; 1; 517; 1023 |]
let slot base k = addr base ((1024 * (k / 4)) + slot_words.(k mod 4))

(* Every sequence starts by publishing a page, then emptying it and
   re-creating it under the next owner. *)
let drop_and_recreate = [ Owned (0, 7); Release true; Owned (0, 0); Owned (0, 9) ]

let gen_owned_op =
  let open QCheck.Gen in
  let k = int_bound ((4 * owner_pages) - 1) and pg = int_bound (owner_pages - 1) in
  let value = frequency [ (2, return 0); (3, int_range 1 3); (1, int_bound 0xFFFF_FFF) ] in
  frequency
    [
      (8, map2 (fun k v -> Owned (k, v)) k value);
      (3, map2 (fun k v -> Plain (k, v)) k value);
      (1, map2 (fun s d -> Copy_page (s, d)) pg pg);
      (2, map (fun fresh -> Release fresh) bool);
    ]

let arb_owned =
  QCheck.make
    ~print:(fun (base, ops) ->
      Printf.sprintf "base 0x%x: %s" base (String.concat "; " (List.map pp_owned_op ops)))
    QCheck.Gen.(pair gen_base (list_size (int_range 0 40) gen_owned_op))

let test_owned_stores =
  QCheck.Test.make ~count:1000 ~name:"owned stores keep every released memory"
    arb_owned
    (fun (base, ops) ->
      let o = ref (Memory.owner ()) and taken = ref [] in
      let page p = addr base (1024 * p) in
      let step (m, r) = function
        | Owned (k, v) -> (Memory.store_as !o m (slot base k) (w v), Ref.store r (slot base k) (w v))
        | Plain (k, v) -> (Memory.store m (slot base k) (w v), Ref.store r (slot base k) (w v))
        | Copy_page (s, d) ->
            ( Memory.copy_range m ~src:(page s) ~dst:(page d) 1024,
              Ref.copy_range r ~src:(page s) ~dst:(page d) 1024 )
        | Release fresh ->
            Memory.release !o;
            if fresh then o := Memory.owner ();
            taken := (m, r) :: !taken;
            (m, r)
      in
      let last = List.fold_left step (Memory.empty, Ref.empty) (drop_and_recreate @ ops) in
      Memory.release !o;
      List.for_all (fun (m, r) -> check_agree base m r) (last :: !taken))

let test_owner_in_place () =
  let a = w 0x5000 and b = w 0x5004 in
  let o = Memory.owner () in
  let m1 = Memory.store_as o Memory.empty a (w 1) in
  let m2 = Memory.store_as o m1 b (w 2) in
  Alcotest.(check bool) "the owner's second store writes in place" true
    (Memory.same_page (Memory.page_at m1 a) (Memory.page_at m2 a));
  let m3 = Memory.store_as o (Memory.store_as o m2 a Word.zero) b Word.zero in
  Alcotest.(check bool) "emptying the page drops it" true (Memory.page_at m3 a = None);
  let m4 = Memory.store_as o m3 b (w 3) in
  Memory.release o;
  let m5 = Memory.store_as o m4 b (w 4) in
  Alcotest.(check bool) "a released owner copies" false
    (Memory.same_page (Memory.page_at m4 b) (Memory.page_at m5 b));
  Alcotest.(check (list int)) "the re-created page reads as stored" [ 0; 3 ]
    (List.map Word.to_int (Memory.load_range m4 a 2));
  let o' = Memory.owner () in
  let m6 = Memory.store_as o' m4 a (w 5) in
  let m7 = Memory.store_as o' m6 b (w 6) in
  Memory.release o';
  Alcotest.(check (list int)) "the released memory is untouched" [ 0; 3 ]
    (List.map Word.to_int (Memory.load_range m4 a 2));
  Alcotest.(check (list int)) "the new owner's memory" [ 5; 6 ]
    (List.map Word.to_int (Memory.load_range m7 a 2))

(* Chunk identity: unchanged pages keep their chunk across snapshots and
   unrelated stores; any store into a page replaces its chunk. *)
let test_page_identity () =
  let pa = w 0x3000 in
  let m0 = Memory.store Memory.empty (Word.add pa (w 4)) (w 42) in
  let p0 = Memory.page_at m0 pa in
  Alcotest.(check bool) "same chunk on snapshot" true
    (Memory.same_page p0 (Memory.page_at m0 pa));
  let m1 = Memory.store m0 (w 0x8000) (w 7) in
  Alcotest.(check bool) "unrelated store keeps the chunk" true
    (Memory.same_page p0 (Memory.page_at m1 pa));
  let m2 = Memory.store m1 (Word.add pa (w 8)) (w 9) in
  Alcotest.(check bool) "store into the page replaces the chunk" false
    (Memory.same_page p0 (Memory.page_at m2 pa));
  let m3 = Memory.store m2 (Word.add pa (w 8)) Word.zero in
  Alcotest.(check bool) "the old chunk never comes back" false
    (Memory.same_page p0 (Memory.page_at m3 pa));
  Alcotest.(check bool) "zero pages are canonical" true
    (Memory.same_page (Memory.page_at Memory.empty pa)
       (Memory.page_at (Memory.zero_range m3 pa 1024) pa))

let test_page_words () =
  Alcotest.(check int) "page_words mirrors ptable" Memory.page_words
    Komodo_machine.Ptable.words_per_page

(* -- The nonzero walk ------------------------------------------------------

   [Memory.iter_nonzero] leaves a page once it has seen the chunk's
   nonzero-word count, so it must list exactly the nonzero words the
   reference loads. Edge pages put a page's only or last nonzero word
   at slot 0 or 1023, or empty a page back to absent. *)

let edge_pages =
  [
    Zero (0, arena_words);
    Store (0, 5) (* page 0: only word at slot 0 *);
    Store (1024 + 3, 8);
    Store (1024 + 1023, 9) (* page 1: last word at slot 1023 *);
    Store (2048 + 1023, 4) (* page 2: only word at slot 1023 *);
    Store (3072 + 9, 1);
    Store (3072 + 9, 0) (* page 3: emptied back to absent *);
    Store (4096 + 1, 2);
    Store (4096, 7);
    Store (4096 + 1, 0) (* page 4: last word at slot 0 *);
  ]

let nonzero_ref r a n =
  List.filter (fun (_, v) -> not (Word.equal v Word.zero))
    (List.mapi (fun k v -> (k, v)) (Ref.load_range r a n))

let nonzero_new m a n =
  let got = ref [] in
  Memory.iter_nonzero m a n (fun k v -> got := (k, v) :: !got);
  List.rev !got

let test_iter_nonzero =
  QCheck.Test.make ~count:300 ~name:"iter_nonzero lists the reference's nonzero words"
    (QCheck.pair (arb_seq gen_base)
       (QCheck.pair (QCheck.int_bound (arena_words - 1)) (QCheck.int_bound 3000)))
    (fun ((base, ops), (off, n)) ->
      let n = min n (arena_words - off) in
      List.for_all
        (fun ops ->
          let m, r =
            List.fold_left
              (fun (m, r) op -> (apply_new base m op, apply_ref base r op))
              (Memory.empty, Ref.empty) ops
          in
          List.for_all
            (fun (off, n) ->
              nonzero_new m (addr base off) n = nonzero_ref r (addr base off) n
              || QCheck.Test.fail_reportf "window %d+%d differs" off n)
            [ (off, n); (off / 1024 * 1024, n); (0, arena_words); (0, 1024); (1024, 1024); (2048, 1024);
              (3072, 1024); (4096, 1024); (1024, 256); (4096, 256); (1023, 2);
              (2047, 1); (5, 4000); (4095, 1025) ])
        [ ops; edge_pages; edge_pages @ ops ])

(* Physically equal memories compare equal at once; a rebuilt copy
   compares by contents, so one changed word (same nonzero count) shows. *)
let test_equal_range_copies () =
  let base = w 0x8000 in
  let m =
    List.fold_left
      (fun m (i, v) -> Memory.store m (Word.add base (w (4 * i))) (w v))
      Memory.empty
      [ (0, 1); (1023, 2); (1500, 3) ]
  in
  let rebuilt = Memory.store_range_array Memory.empty base (Memory.load_range_array m base 2048) in
  let edited = Memory.store rebuilt (Word.add base (w (4 * 1500))) (w 4) in
  let check name expected b =
    Alcotest.(check bool) name expected (Memory.equal_range m b base 2048);
    Alcotest.(check bool) (name ^ ", equal") expected (Memory.equal m b)
  in
  check "physically equal" true m;
  check "rebuilt copy" true rebuilt;
  check "rebuilt copy with one word changed" false edited

let suite =
  [
    Testlib.qcheck test_model_equivalence;
    Testlib.qcheck test_equal_and_ranges;
    Testlib.qcheck test_load_range_array;
    Testlib.qcheck test_absorb_range;
    Testlib.qcheck test_absorb_word;
    Alcotest.test_case "page chunk identity" `Quick test_page_identity;
    Alcotest.test_case "page_words constant" `Quick test_page_words;
    Testlib.qcheck test_owned_stores;
    Alcotest.test_case "owner writes in place until release" `Quick test_owner_in_place;
    Testlib.qcheck test_iter_nonzero;
    Alcotest.test_case "equal_range: shared, rebuilt and edited copies" `Quick
      test_equal_range_copies;
  ]
