(* Crypto substrate: SHA-256 against FIPS vectors, HMAC against RFC 4231,
   bignum algebraic properties, RSA sign/verify. *)

module Sha256 = Komodo_crypto.Sha256
module Hmac = Komodo_crypto.Hmac
module Bignum = Komodo_crypto.Bignum
module Rsa = Komodo_crypto.Rsa
module Word = Komodo_machine.Word

let hex = Sha256.to_hex

(* -- SHA-256 ------------------------------------------------------------ *)

let test_sha_vectors () =
  let t input expected = Alcotest.(check string) "digest" expected (hex (Sha256.digest input)) in
  t "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  t "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  t "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  t (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha_incremental () =
  let one_shot = Sha256.digest "hello, world and then some more text" in
  let ctx = Sha256.init in
  let ctx = Sha256.absorb ctx "hello, " in
  let ctx = Sha256.absorb ctx "world and then" in
  let ctx = Sha256.absorb ctx " some more text" in
  Alcotest.(check string) "incremental = one-shot" (hex one_shot) (hex (Sha256.finalize ctx))

let test_sha_block_api () =
  let block = String.make 64 'B' in
  let a = Sha256.finalize (Sha256.absorb_block Sha256.init block) in
  let b = Sha256.finalize (Sha256.absorb Sha256.init block) in
  Alcotest.(check string) "block path agrees" (hex b) (hex a);
  Alcotest.check_raises "short block rejected"
    (Invalid_argument "Sha256.absorb_block: block must be 64 bytes") (fun () ->
      ignore (Sha256.absorb_block Sha256.init "short"));
  Alcotest.check_raises "partial context rejected"
    (Invalid_argument "Sha256.absorb_block: context holds a partial block") (fun () ->
      ignore (Sha256.absorb_block (Sha256.absorb Sha256.init "x") block))

let test_sha_finalize_pure () =
  let ctx = Sha256.absorb Sha256.init "data" in
  Alcotest.(check string) "finalize twice" (hex (Sha256.finalize ctx)) (hex (Sha256.finalize ctx))

let test_sha_words () =
  let d = Sha256.digest "roundtrip" in
  Alcotest.(check string) "words roundtrip" (hex d)
    (hex (Sha256.digest_of_words (Sha256.digest_words_of d)));
  Alcotest.(check string) "hex roundtrip" (hex d) (hex (Sha256.of_hex (hex d)))

let test_blocks_absorbed () =
  let ctx = Sha256.absorb Sha256.init (String.make 130 'x') in
  Alcotest.(check int) "two full blocks" 2 (Sha256.blocks_absorbed ctx)

let prop_sha_incremental_split =
  QCheck.Test.make ~name:"any split point gives the one-shot digest" ~count:100
    QCheck.(pair (string_of_size (Gen.int_range 0 300)) (int_bound 300))
    (fun (s, k) ->
      let k = min k (String.length s) in
      let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
      Sha256.finalize (Sha256.absorb (Sha256.absorb Sha256.init a) b) = Sha256.digest s)

(* -- HMAC (RFC 4231) ----------------------------------------------------- *)

let test_hmac_rfc4231 () =
  let t ~key ~msg expected = Alcotest.(check string) "mac" expected (hex (Hmac.mac ~key msg)) in
  t ~key:(String.make 20 '\x0b') ~msg:"Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  t ~key:"Jefe" ~msg:"what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  t ~key:(String.make 20 '\xaa') ~msg:(String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* Long key (hashed down). *)
  t ~key:(String.make 131 '\xaa') ~msg:"Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

(* [Hmac.mac] reuses the pad blocks of the last key its domain saw. The
   vectors interleave keys so each MAC either reuses them or replaces
   them: A, B, A again, the 131-byte key for two messages, then the
   empty key (whose MAC over the empty message is the well-known
   b613679a...). A fresh domain starts with its own memo. *)
let test_hmac_memo () =
  let a = String.make 20 '\x0b' and b = "Jefe" and long = String.make 131 '\xaa' in
  let vectors =
    [
      (a, "Hi There", "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
      (b, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
      (a, "Hi There", "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
      (long, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
      ( long,
        "This is a test using a larger than block-size key and a larger than block-size \
         data. The key needs to be hashed before being used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
      ("", "", "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
    ]
  in
  let macs () = List.map (fun (key, msg, _) -> hex (Hmac.mac ~key msg)) vectors in
  let want = List.map (fun (_, _, v) -> v) vectors in
  Alcotest.(check (list string)) "this domain" want (macs ());
  Alcotest.(check (list string)) "a spawned domain" want (Domain.join (Domain.spawn macs))

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let mac = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key msg mac);
  let bad = String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) mac in
  Alcotest.(check bool) "rejects flipped bit" false (Hmac.verify ~key msg bad);
  Alcotest.(check bool) "rejects short tag" false (Hmac.verify ~key msg "short")

let test_hmac_compressions () =
  Alcotest.(check int) "64-byte message" 5 (Hmac.compressions 64);
  Alcotest.(check int) "empty message" 4 (Hmac.compressions 0)

(* -- Bignum --------------------------------------------------------------- *)

let arb_big =
  QCheck.map
    (fun parts ->
      List.fold_left
        (fun acc p -> Bignum.add (Bignum.shift_left acc 30) (Bignum.of_int p))
        Bignum.zero parts)
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) (QCheck.int_bound 0x3FFF_FFFF))

let prop_add_comm =
  QCheck.Test.make ~name:"bignum add commutative" (QCheck.pair arb_big arb_big)
    (fun (a, b) -> Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"bignum mul distributes" (QCheck.triple arb_big arb_big arb_big)
    (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod =
  QCheck.Test.make ~name:"divmod: a = q*b + r, r < b" (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift left then right" (QCheck.pair arb_big (QCheck.int_bound 100))
    (fun (a, k) -> Bignum.equal (Bignum.shift_right (Bignum.shift_left a k) k) a)

let prop_sub_add =
  QCheck.Test.make ~name:"(a+b) - b = a" (QCheck.pair arb_big arb_big)
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bignum bytes roundtrip" arb_big (fun a ->
      Bignum.equal (Bignum.of_bytes_be (Bignum.to_bytes_be a)) a)

let prop_modpow_small =
  QCheck.Test.make ~name:"modpow agrees with naive"
    (QCheck.triple (QCheck.int_bound 50) (QCheck.int_bound 12) (QCheck.int_range 2 1000))
    (fun (b, e, m) ->
      let naive =
        let rec go acc i = if i = 0 then acc else go (acc * b mod m) (i - 1) in
        go 1 e
      in
      Bignum.to_int
        (Bignum.modpow ~base:(Bignum.of_int b) ~exp:(Bignum.of_int e)
           ~modulus:(Bignum.of_int m))
      = naive)

let test_bignum_basics () =
  Alcotest.(check string) "decimal print" "123456789012345678901234567890"
    (Bignum.to_string (Bignum.of_hex "18ee90ff6c373e0ee4e3f0ad2"));
  Alcotest.(check int) "bits of 255" 8 (Bignum.bits (Bignum.of_int 255));
  Alcotest.(check int) "bits of 256" 9 (Bignum.bits (Bignum.of_int 256));
  Alcotest.(check int) "bits of zero" 0 (Bignum.bits Bignum.zero);
  Alcotest.(check bool) "test_bit" true (Bignum.test_bit (Bignum.of_int 5) 2);
  Alcotest.check_raises "negative sub" (Invalid_argument "Bignum.sub: negative result")
    (fun () -> ignore (Bignum.sub Bignum.one Bignum.two));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let test_gcd_modinv () =
  let g = Bignum.gcd (Bignum.of_int 48) (Bignum.of_int 36) in
  Alcotest.(check int) "gcd" 12 (Bignum.to_int g);
  (match Bignum.modinv (Bignum.of_int 3) (Bignum.of_int 11) with
  | Some inv -> Alcotest.(check int) "3^-1 mod 11" 4 (Bignum.to_int inv)
  | None -> Alcotest.fail "inverse exists");
  Alcotest.(check bool) "no inverse when not coprime" true
    (Bignum.modinv (Bignum.of_int 4) (Bignum.of_int 8) = None)

let test_primality () =
  let prime n = Bignum.is_probable_prime (Bignum.of_int n) in
  List.iter (fun n -> Alcotest.(check bool) (string_of_int n) true (prime n))
    [ 2; 3; 5; 31; 101; 7919; 1_000_000_007 ];
  List.iter (fun n -> Alcotest.(check bool) (string_of_int n) false (prime n))
    [ 0; 1; 4; 100; 7917; 1_000_000_008; 341 (* Fermat pseudoprime base 2 *) ]

(* -- RSA ------------------------------------------------------------------ *)

let deterministic_rng seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s

let test_rsa_roundtrip () =
  let key = Rsa.generate ~rng:(deterministic_rng 11) ~bits:512 in
  let d = Sha256.digest "sign me" in
  let s = Rsa.sign key d in
  Alcotest.(check bool) "verifies" true (Rsa.verify key.Rsa.pub ~digest:d ~signature:s);
  Alcotest.(check bool) "wrong digest fails" false
    (Rsa.verify key.Rsa.pub ~digest:(Sha256.digest "other") ~signature:s);
  let tampered = String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 4) else c) s in
  Alcotest.(check bool) "tampered signature fails" false
    (Rsa.verify key.Rsa.pub ~digest:d ~signature:tampered)

let test_rsa_deterministic () =
  let k1 = Rsa.generate ~rng:(deterministic_rng 5) ~bits:512 in
  let k2 = Rsa.generate ~rng:(deterministic_rng 5) ~bits:512 in
  Alcotest.(check bool) "same seed, same key" true (Bignum.equal k1.Rsa.pub.Rsa.n k2.Rsa.pub.Rsa.n);
  let k3 = Rsa.generate ~rng:(deterministic_rng 6) ~bits:512 in
  Alcotest.(check bool) "different seed, different key" false
    (Bignum.equal k1.Rsa.pub.Rsa.n k3.Rsa.pub.Rsa.n)

let test_rsa_key_size () =
  let key = Rsa.generate ~rng:(deterministic_rng 3) ~bits:512 in
  Alcotest.(check bool) "modulus near 512 bits" true
    (Bignum.bits key.Rsa.pub.Rsa.n >= 511 && Bignum.bits key.Rsa.pub.Rsa.n <= 512);
  Alcotest.(check int) "signature length" (Rsa.key_bytes key.Rsa.pub)
    (String.length (Rsa.sign key (Sha256.digest "x")))

let test_rsa_cost_model () =
  Alcotest.(check bool) "1024-bit signing cost in expected band" true
    (let c = Rsa.sign_cycles ~bits:1024 in
     c > 5_000_000 && c < 20_000_000);
  Alcotest.(check bool) "cost grows with key size" true
    (Rsa.sign_cycles ~bits:2048 > Rsa.sign_cycles ~bits:1024)

let suite =
  [
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha_incremental;
    Alcotest.test_case "sha256 block api" `Quick test_sha_block_api;
    Alcotest.test_case "sha256 finalize is pure" `Quick test_sha_finalize_pure;
    Alcotest.test_case "sha256 word marshalling" `Quick test_sha_words;
    Alcotest.test_case "sha256 block count" `Quick test_blocks_absorbed;
    Alcotest.test_case "hmac RFC 4231 vectors" `Quick test_hmac_rfc4231;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    Alcotest.test_case "hmac compression count" `Quick test_hmac_compressions;
    Alcotest.test_case "bignum basics" `Quick test_bignum_basics;
    Alcotest.test_case "gcd and modinv" `Quick test_gcd_modinv;
    Alcotest.test_case "primality" `Quick test_primality;
    Alcotest.test_case "rsa roundtrip" `Quick test_rsa_roundtrip;
    Alcotest.test_case "rsa determinism" `Quick test_rsa_deterministic;
    Alcotest.test_case "rsa key size" `Quick test_rsa_key_size;
    Alcotest.test_case "rsa cost model" `Quick test_rsa_cost_model;
    Testlib.qcheck prop_sha_incremental_split;
    Testlib.qcheck prop_add_comm;
    Testlib.qcheck prop_mul_distributes;
    Testlib.qcheck prop_divmod;
    Testlib.qcheck prop_shift_roundtrip;
    Testlib.qcheck prop_sub_add;
    Testlib.qcheck prop_bytes_roundtrip;
    Testlib.qcheck prop_modpow_small;
  ]

(* -- Late additions: deeper bignum properties --------------------------- *)

let prop_modinv_correct =
  QCheck.Test.make ~name:"modinv: a * a^-1 = 1 (mod m)" ~count:200
    (QCheck.pair (QCheck.int_range 1 100_000) (QCheck.int_range 2 100_000))
    (fun (a, m) ->
      let ba = Bignum.of_int a and bm = Bignum.of_int m in
      match Bignum.modinv ba bm with
      | None -> not (Bignum.equal (Bignum.gcd ba bm) Bignum.one)
      | Some inv ->
          Bignum.to_int (Bignum.rem (Bignum.mul ba inv) bm) = 1 mod m)

let prop_divmod_pow2_is_shift =
  QCheck.Test.make ~name:"division by 2^k agrees with shift_right" ~count:100
    (QCheck.pair arb_big (QCheck.int_bound 60))
    (fun (a, k) ->
      let q, _ = Bignum.divmod a (Bignum.shift_left Bignum.one k) in
      Bignum.equal q (Bignum.shift_right a k))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is antisymmetric and add-monotone" ~count:100
    (QCheck.pair arb_big arb_big)
    (fun (a, b) ->
      let c = Bignum.compare a b in
      c = -Bignum.compare b a
      && (c >= 0 || Bignum.compare (Bignum.add a Bignum.one) b <= 0
          || Bignum.compare a b < 0))

let late_suite =
  [
    Testlib.qcheck prop_modinv_correct;
    Testlib.qcheck prop_divmod_pow2_is_shift;
    Testlib.qcheck prop_compare_total_order;
  ]

(* -- Attestation MAC negative paths ------------------------------------- *)

module Attest = Komodo_core.Attest

(* A forged, replayed, or corrupted attestation must never verify: the
   serving subsystem trusts [Attest.verify] as its per-session oracle,
   so each rejection class gets its own check. *)
let test_attest_verify_negative_paths () =
  let key = Sha256.digest "boot secret" in
  let measurement = Sha256.digest "enclave" in
  let data = Sha256.digest "session nonce" in
  let mac = Attest.create ~key ~measurement ~data in
  Alcotest.(check bool) "genuine MAC verifies" true
    (Attest.verify ~key ~measurement ~data ~mac);
  Alcotest.(check bool) "wrong key rejected" false
    (Attest.verify ~key:(Sha256.digest "other boot") ~measurement ~data ~mac);
  Alcotest.(check bool) "wrong measurement rejected" false
    (Attest.verify ~key ~measurement:(Sha256.digest "impostor") ~data ~mac);
  Alcotest.(check bool) "wrong data rejected" false
    (Attest.verify ~key ~measurement ~data:(Sha256.digest "replayed nonce") ~mac);
  Alcotest.(check bool) "truncated MAC rejected" false
    (Attest.verify ~key ~measurement ~data ~mac:(String.sub mac 0 31));
  Alcotest.(check bool) "empty MAC rejected" false
    (Attest.verify ~key ~measurement ~data ~mac:"");
  (* every single-bit corruption of the MAC must be rejected *)
  for byte = 0 to 31 do
    for bit = 0 to 7 do
      let flipped =
        String.mapi
          (fun i c -> if i = byte then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          mac
      in
      if Attest.verify ~key ~measurement ~data ~mac:flipped then
        Alcotest.failf "bit-flipped MAC accepted (byte %d bit %d)" byte bit
    done
  done

let test_attest_create_validates_sizes () =
  let k32 = Sha256.digest "k" in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": accepted a bad size")
  in
  expect_invalid "short measurement" (fun () ->
      Attest.create ~key:k32 ~measurement:"short" ~data:k32);
  expect_invalid "short data" (fun () ->
      Attest.create ~key:k32 ~measurement:k32 ~data:"short")

let attest_suite =
  [
    Alcotest.test_case "Attest.verify negative paths" `Quick
      test_attest_verify_negative_paths;
    Alcotest.test_case "Attest.create size validation" `Quick
      test_attest_create_validates_sizes;
  ]

(* -- AES-256-GCM and HKDF-SHA256 (sealed storage substrate) -------------- *)

module Aes = Komodo_crypto.Aes
module Gcm = Komodo_crypto.Gcm
module Hkdf = Komodo_crypto.Hkdf

let unhex = Sha256.of_hex

(* FIPS 197 appendix C.3: the AES-256 forward cipher worked example. *)
let test_aes_fips197 () =
  let key =
    Aes.expand
      (unhex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  Alcotest.(check string) "C.3 block"
    "8ea2b7ca516745bfeafc49904b496089"
    (hex (Aes.encrypt_block key (unhex "00112233445566778899aabbccddeeff")));
  Alcotest.check_raises "short key rejected"
    (Invalid_argument "Aes.expand: key must be 32 bytes") (fun () ->
      ignore (Aes.expand "short"));
  Alcotest.check_raises "short block rejected"
    (Invalid_argument "Aes.encrypt_block: block must be 16 bytes") (fun () ->
      ignore (Aes.encrypt_block key "short"))

(* NIST GCM spec appendix B, AES-256 test cases 13-16 (the CAVP
   reference vectors): empty, single-block, four-block, and
   AAD-plus-truncated-plaintext shapes. *)
let gcm_tc15_key =
  unhex "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"

let gcm_tc16_pt =
  unhex
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
     1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"

let gcm_tc16_aad = unhex "feedfacedeadbeeffeedfacedeadbeefabaddad2"
let gcm_iv = unhex "cafebabefacedbaddecaf888"

let test_gcm_nist_vectors () =
  let t ~key ~nonce ~aad ~pt ~ct ~tag name =
    let k = Gcm.of_secret key in
    let got_ct, got_tag = Gcm.encrypt ~key:k ~nonce ~aad pt in
    Alcotest.(check string) (name ^ " ct") ct (hex got_ct);
    Alcotest.(check string) (name ^ " tag") tag (hex got_tag);
    match Gcm.decrypt ~key:k ~nonce ~aad ~tag:got_tag got_ct with
    | Some back -> Alcotest.(check string) (name ^ " roundtrip") (hex pt) (hex back)
    | None -> Alcotest.fail (name ^ ": genuine seal failed to open")
  in
  t ~key:(String.make 32 '\x00') ~nonce:(String.make 12 '\x00') ~aad:"" ~pt:""
    ~ct:"" ~tag:"530f8afbc74536b9a963b4f1c4cb738b" "TC13";
  t ~key:(String.make 32 '\x00') ~nonce:(String.make 12 '\x00') ~aad:""
    ~pt:(String.make 16 '\x00')
    ~ct:"cea7403d4d606b6e074ec5d3baf39d18"
    ~tag:"d0d1c8a799996bf0265b98b5d48ab919" "TC14";
  t ~key:gcm_tc15_key ~nonce:gcm_iv ~aad:""
    ~pt:
      (unhex
         "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
          1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
    ~ct:
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
       8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
    ~tag:"b094dac5d93471bdec1a502270e3cc6c" "TC15";
  t ~key:gcm_tc15_key ~nonce:gcm_iv ~aad:gcm_tc16_aad ~pt:gcm_tc16_pt
    ~ct:
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
       8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
    ~tag:"76fc6ece0f4e1768cddf8853bb2d551b" "TC16"

(* The negative cases the vault's refuse-and-report behaviour rests
   on: every single-bit flip of the tag, every truncation of the tag,
   and corruption of ciphertext or AAD must all fail to open. *)
let test_gcm_reject_forgery () =
  let k = Gcm.of_secret gcm_tc15_key in
  let ct, tag = Gcm.encrypt ~key:k ~nonce:gcm_iv ~aad:gcm_tc16_aad gcm_tc16_pt in
  let open_with ~aad ~tag ct = Gcm.decrypt ~key:k ~nonce:gcm_iv ~aad ~tag ct in
  let flip s bit =
    let b = Bytes.of_string s in
    Bytes.set b (bit / 8) (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  in
  for bit = 0 to (8 * Gcm.tag_size) - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "bit-flipped tag %d rejected" bit)
      true
      (open_with ~aad:gcm_tc16_aad ~tag:(flip tag bit) ct = None)
  done;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "truncated tag (%d bytes) rejected" n)
        true
        (open_with ~aad:gcm_tc16_aad ~tag:(String.sub tag 0 n) ct = None))
    [ 0; 1; 4; 8; 12; 15 ];
  Alcotest.(check bool) "extended tag rejected" true
    (open_with ~aad:gcm_tc16_aad ~tag:(tag ^ "\x00") ct = None);
  Alcotest.(check bool) "flipped ciphertext byte rejected" true
    (open_with ~aad:gcm_tc16_aad ~tag (flip ct 40) = None);
  Alcotest.(check bool) "flipped AAD byte rejected" true
    (open_with ~aad:(flip gcm_tc16_aad 3) ~tag ct = None);
  Alcotest.(check bool) "wrong nonce rejected" true
    (Gcm.decrypt ~key:k ~nonce:(String.make 12 '\x07') ~aad:gcm_tc16_aad ~tag ct
    = None)

let prop_gcm_roundtrip =
  QCheck.Test.make ~name:"gcm: decrypt inverts encrypt at any length"
    ~count:100
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) small_string)
    (fun (pt, aad) ->
      let k = Gcm.of_secret (Sha256.digest "gcm-roundtrip-key") in
      let nonce = String.sub (Sha256.digest aad) 0 12 in
      let ct, tag = Gcm.encrypt ~key:k ~nonce ~aad pt in
      String.length ct = String.length pt
      && Gcm.decrypt ~key:k ~nonce ~aad ~tag ct = Some pt)

(* RFC 5869 appendix A test cases 1-3 for HKDF-SHA256. *)
let test_hkdf_rfc5869 () =
  let t ?salt ~ikm ~info ~len ~prk ~okm name =
    Alcotest.(check string) (name ^ " prk") prk (hex (Hkdf.extract ?salt ikm));
    Alcotest.(check string) (name ^ " okm") okm
      (hex (Hkdf.derive ?salt ~ikm ~info len))
  in
  t ~salt:(unhex "000102030405060708090a0b0c")
    ~ikm:(String.make 22 '\x0b')
    ~info:(unhex "f0f1f2f3f4f5f6f7f8f9") ~len:42
    ~prk:"077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    ~okm:
      "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
       34007208d5b887185865"
    "TC1";
  let seq a b = String.init (b - a + 1) (fun i -> Char.chr (a + i)) in
  t ~salt:(seq 0x60 0xaf) ~ikm:(seq 0x00 0x4f) ~info:(seq 0xb0 0xff) ~len:82
    ~prk:"06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
    ~okm:
      "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
       59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
       cc30c58179ec3e87c14c01d5c1f3434f1d87"
    "TC2";
  t ~ikm:(String.make 22 '\x0b') ~info:"" ~len:42
    ~prk:"19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
    ~okm:
      "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
       9d201395faa4b61a96c8"
    "TC3";
  Alcotest.check_raises "overlong expand rejected"
    (Invalid_argument "Hkdf.expand: length out of range") (fun () ->
      ignore (Hkdf.expand ~prk:(String.make 32 'k') ~info:"" (255 * 32 + 1)))

let test_aead_cost_models () =
  Alcotest.(check int) "aes blocks, empty payload" 1 (Gcm.aes_blocks ~len:0);
  Alcotest.(check int) "aes blocks, 60-byte payload" 5 (Gcm.aes_blocks ~len:60);
  Alcotest.(check int) "ghash blocks, TC16 shape" 7
    (Gcm.ghash_blocks ~aad:20 ~len:60);
  Alcotest.(check bool) "hkdf cost grows with output" true
    (Hkdf.compressions ~ikm_len:32 ~info_len:16 96
    > Hkdf.compressions ~ikm_len:32 ~info_len:16 32)

let aead_suite =
  [
    Alcotest.test_case "aes-256 FIPS 197 vector" `Quick test_aes_fips197;
    Alcotest.test_case "aes-256-gcm NIST vectors" `Quick test_gcm_nist_vectors;
    Alcotest.test_case "gcm rejects forgeries" `Quick test_gcm_reject_forgery;
    Alcotest.test_case "hkdf RFC 5869 vectors" `Quick test_hkdf_rfc5869;
    Alcotest.test_case "aead cost models" `Quick test_aead_cost_models;
    Testlib.qcheck prop_gcm_roundtrip;
  ]

let suite =
  suite @ late_suite @ attest_suite @ aead_suite
  @ [ Alcotest.test_case "hmac pad reuse across keys and domains" `Quick test_hmac_memo ]
