(* The splittable seed derivation (lib/rand/seedsplit). The
   derivation is a frozen contract: every recorded trial — committed
   regression traces, CI diffs, BENCH_campaign.json — is keyed by
   [derive ~root index], so the golden values here must never change.
   Beyond stability, the properties a parallel campaign leans on:
   derived seeds are non-negative, collision-free at campaign scale,
   and statistically independent across both index and root. *)

module Seedsplit = Komodo_rand.Seedsplit

(* Frozen outputs of [derive]. If this test fails, the derivation
   changed and every committed seed in the repo silently refers to a
   different trial — revert the derivation, don't update the table. *)
let golden =
  [
    (0, 0, 4073552104164651883);
    (0, 1, 1990071630548588925);
    (0, 2, 121904254867886419);
    (7, 0, 2418118848055258963);
    (7, 1, 1393370355107282181);
    (7, 199, 354128487051184062);
    (42, 0, 2749113066540076570);
    (42, 9, 1124334894917578461);
    (1_000_003, 12345, 3897461754533926510);
    (max_int, 0, 826607897366042601);
  ]

let test_golden () =
  List.iter
    (fun (root, index, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "derive ~root:%d %d" root index)
        expected
        (Seedsplit.derive ~root index))
    golden

let test_range () =
  (* 62-bit truncation: always a valid non-negative seed. *)
  List.iter
    (fun (root, index, _) ->
      let s = Seedsplit.derive ~root index in
      Alcotest.(check bool)
        (Printf.sprintf "derive ~root:%d %d >= 0" root index)
        true (s >= 0))
    golden

let test_no_collisions_one_root () =
  let tbl = Hashtbl.create 200_000 in
  let dups = ref 0 in
  for i = 0 to 99_999 do
    let s = Seedsplit.derive ~root:7 i in
    if Hashtbl.mem tbl s then incr dups else Hashtbl.add tbl s ()
  done;
  Alcotest.(check int) "collisions across 10^5 indices of root 7" 0 !dups

let test_no_collisions_across_roots () =
  (* Distinct roots must not fall into each other's streams: a CI run
     at seed r and a CI run at seed r+1 share no trials. *)
  let tbl = Hashtbl.create 200_000 in
  let dups = ref 0 in
  for root = 0 to 999 do
    for i = 0 to 99 do
      let s = Seedsplit.derive ~root i in
      if Hashtbl.mem tbl s then incr dups else Hashtbl.add tbl s ()
    done
  done;
  Alcotest.(check int) "collisions across 1000 roots x 100 indices" 0 !dups

let test_negative_index_rejected () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Seedsplit.derive: negative index") (fun () ->
      ignore (Seedsplit.derive ~root:7 (-1)))

let test_stream_matches_derive () =
  let s = Seedsplit.stream ~root:42 () in
  for i = 0 to 499 do
    Alcotest.(check int)
      (Printf.sprintf "stream position %d" i)
      (Seedsplit.derive ~root:42 i)
      (Seedsplit.next s)
  done

let test_mix64_bijective_sample () =
  (* The finalizer is a bijection; spot-check injectivity over a dense
     low range where a broken shift/multiply would visibly collide. *)
  let tbl = Hashtbl.create 20_000 in
  let dups = ref 0 in
  for i = 0 to 9_999 do
    let v = Seedsplit.mix64 (Int64.of_int i) in
    if Hashtbl.mem tbl v then incr dups else Hashtbl.add tbl v ()
  done;
  Alcotest.(check int) "mix64 collisions over 10^4 inputs" 0 !dups

let prop_index_injective =
  QCheck.Test.make ~count:200 ~name:"derive is injective in the index"
    QCheck.(triple (int_bound 1_000_000) (int_bound 100_000) (int_bound 100_000))
    (fun (root, i, j) ->
      i = j || Seedsplit.derive ~root i <> Seedsplit.derive ~root j)

let prop_roots_independent =
  QCheck.Test.make ~count:200 ~name:"distinct roots give distinct streams"
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000))
    (fun (r1, r2, i) -> r1 = r2 || Seedsplit.derive ~root:r1 i <> Seedsplit.derive ~root:r2 i)

let prop_low_bits_vary =
  (* Trial seeds feed LCG-ish consumers that are sensitive to low-bit
     regularities; consecutive derived seeds must not share a low-bit
     pattern (a classic failure of additive derivations like
     [seed + i*prime], which this module replaced). *)
  QCheck.Test.make ~count:50 ~name:"consecutive seeds differ in their low byte"
    QCheck.(pair (int_bound 1_000_000) (int_bound 100_000))
    (fun (root, i0) ->
      (* A single triple of consecutive low bytes forms an arithmetic
         progression by chance about once in 256, so demand rarity over
         a window rather than absence at one point: an additive
         derivation makes nearly every triple a progression, an
         acceptable mix makes ~0.25 of these 64. *)
      let progressions = ref 0 in
      for i = i0 to i0 + 63 do
        let a = Seedsplit.derive ~root i land 0xff
        and b = Seedsplit.derive ~root (i + 1) land 0xff
        and c = Seedsplit.derive ~root (i + 2) land 0xff in
        if b - a = c - b && b <> a then incr progressions
      done;
      !progressions < 8)

let suite =
  [
    Alcotest.test_case "golden derivation values are frozen" `Quick test_golden;
    Alcotest.test_case "derived seeds are non-negative" `Quick test_range;
    Alcotest.test_case "no collisions across 10^5 indices" `Quick
      test_no_collisions_one_root;
    Alcotest.test_case "no collisions across roots" `Quick
      test_no_collisions_across_roots;
    Alcotest.test_case "negative index rejected" `Quick
      test_negative_index_rejected;
    Alcotest.test_case "stream reads the derive sequence" `Quick
      test_stream_matches_derive;
    Alcotest.test_case "mix64 injective on a dense sample" `Quick
      test_mix64_bijective_sample;
    Testlib.qcheck prop_index_injective;
    Testlib.qcheck prop_roots_independent;
    Testlib.qcheck prop_low_bits_vary;
  ]
