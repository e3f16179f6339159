(* The verifier enclave (remote attestation): quote issuance, forgery
   rejection, and quote semantics. *)

open Testlib
module Word = Komodo_machine.Word
module Verifier = Komodo_user.Verifier
module Sha256 = Komodo_crypto.Sha256
module Bignum = Komodo_crypto.Bignum
module Rsa = Komodo_crypto.Rsa
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor

let verifier_out = Os.shared_base
let verifier_in = Word.add Os.shared_base (Word.of_int 0x1000)

let verifier_image =
  let zero_page = String.make 4096 '\000' in
  Image.empty ~name:"verifier"
  |> fun img ->
  Image.add_blob img ~va:Verifier.code_va ~w:false ~x:true
    (Uprog.to_page_images (Uprog.native_words ~id:Verifier.native_id))
  |> fun img ->
  Image.add_secure_page img
    ~mapping:(Mapping.make ~va:Verifier.state_va ~w:true ~x:false)
    ~contents:zero_page
  |> fun img ->
  Image.add_insecure_mapping img
    ~mapping:(Mapping.make ~va:Verifier.output_va ~w:true ~x:false)
    ~target:verifier_out
  |> fun img ->
  Image.add_insecure_mapping img
    ~mapping:(Mapping.make ~va:Verifier.input_va ~w:false ~x:false)
    ~target:verifier_in
  |> fun img -> Image.add_thread img ~entry:Verifier.code_va

(* Shared fixture: booted world with an initialised verifier. *)
let world () =
  let os = Os.boot ~seed:0xF00F ~npages:64 () in
  let os, h =
    match Loader.load os verifier_image with
    | Ok r -> r
    | Error e -> Alcotest.failf "verifier load: %a" Loader.pp_error e
  in
  let th = List.hd h.Loader.threads in
  let os, e, _ = enter0 os ~thread:th in
  check_err "verifier init" Errors.Success e;
  let pub =
    { Rsa.n = Bignum.of_bytes_be (Os.read_bytes os verifier_out 128); e = Rsa.default_e }
  in
  (os, h, th, pub)

let endorse os th tuple =
  let os = Os.write_bytes os verifier_in tuple in
  let os, e, verdict =
    Os.enter os ~thread:th ~args:(Word.of_int Verifier.cmd_endorse, Word.zero, Word.zero)
  in
  check_err "endorse call" Errors.Success e;
  (os, Word.to_int verdict, Os.read_bytes os verifier_out 128)

let genuine_tuple (os : Os.t) ~measurement ~data =
  let mac =
    Komodo_core.Attest.create ~key:os.Os.mon.Monitor.attest_key ~measurement ~data
  in
  data ^ measurement ^ mac

let test_init_publishes_endorsed_key () =
  let os, h, _, _ = world () in
  let key_digest = Sha256.digest (Os.read_bytes os verifier_out 128) in
  let key_mac = Os.read_bytes os (Word.add verifier_out (Word.of_int 128)) 32 in
  Alcotest.(check bool) "published key locally attested" true
    (Komodo_core.Attest.verify ~key:os.Os.mon.Monitor.attest_key
       ~measurement:h.Loader.measurement ~data:key_digest ~mac:key_mac)

let test_quote_roundtrip () =
  let os, h, th, pub = world () in
  let data = String.make 32 '\x21' in
  (* Self-endorsement: the verifier quotes its own measurement here,
     which is as good a target as any. *)
  let tuple = genuine_tuple os ~measurement:h.Loader.measurement ~data in
  let _, verdict, quote = endorse os th tuple in
  Alcotest.(check int) "endorsed" 0 verdict;
  Alcotest.(check bool) "remote check passes" true
    (Verifier.check_quote ~pub ~data ~measurement:h.Loader.measurement ~quote)

let test_forged_mac_refused () =
  let os, h, th, _ = world () in
  let data = String.make 32 '\x21' in
  let tuple = genuine_tuple os ~measurement:h.Loader.measurement ~data in
  let forged = String.mapi (fun i c -> if i = 70 then '\xFF' else c) tuple in
  let _, verdict, _ = endorse os th forged in
  Alcotest.(check int) "refused" 1 verdict

let test_quote_binds_measurement_and_data () =
  let os, h, th, pub = world () in
  let data = String.make 32 '\x33' in
  let tuple = genuine_tuple os ~measurement:h.Loader.measurement ~data in
  let _, verdict, quote = endorse os th tuple in
  Alcotest.(check int) "endorsed" 0 verdict;
  Alcotest.(check bool) "wrong measurement rejected" false
    (Verifier.check_quote ~pub ~data ~measurement:(Sha256.digest "other") ~quote);
  Alcotest.(check bool) "wrong data rejected" false
    (Verifier.check_quote ~pub ~data:(String.make 32 '\x34')
       ~measurement:h.Loader.measurement ~quote)

let test_quote_key_is_boot_specific () =
  (* A different boot has a different verifier key: quotes don't
     transfer. *)
  let _, h1, th1, pub1 = world () in
  ignore (h1, th1);
  let os2 = Os.boot ~seed:0xBEEF ~npages:64 () in
  let os2, h2 =
    match Loader.load os2 verifier_image with
    | Ok r -> r
    | Error e -> Alcotest.failf "verifier load: %a" Loader.pp_error e
  in
  let th2 = List.hd h2.Loader.threads in
  let os2, e, _ = enter0 os2 ~thread:th2 in
  check_err "init" Errors.Success e;
  let data = String.make 32 '\x44' in
  let tuple = genuine_tuple os2 ~measurement:h2.Loader.measurement ~data in
  let _, verdict, quote = endorse os2 th2 tuple in
  Alcotest.(check int) "endorsed on boot 2" 0 verdict;
  Alcotest.(check bool) "boot-1 key rejects boot-2 quote" false
    (Verifier.check_quote ~pub:pub1 ~data ~measurement:h2.Loader.measurement ~quote);
  check_wf "verifier world" os2

let test_unknown_command () =
  let os, _, th, _ = world () in
  let _, e, v = Os.enter os ~thread:th ~args:(Word.of_int 9, Word.zero, Word.zero) in
  check_err "survives" Errors.Success e;
  Alcotest.(check int) "unknown command code" 2 (Word.to_int v)

let suite =
  [
    Alcotest.test_case "init publishes endorsed key" `Slow test_init_publishes_endorsed_key;
    Alcotest.test_case "quote roundtrip" `Slow test_quote_roundtrip;
    Alcotest.test_case "forged MAC refused" `Slow test_forged_mac_refused;
    Alcotest.test_case "quote binds measurement and data" `Slow test_quote_binds_measurement_and_data;
    Alcotest.test_case "quotes are boot-specific" `Slow test_quote_key_is_boot_specific;
    Alcotest.test_case "unknown command" `Slow test_unknown_command;
  ]

(* -- Cross-enclave integration: the verifier endorses the notary -------- *)

let notary_image =
  let notary_out = Word.add Os.shared_base (Word.of_int 0x4000) in
  (notary_out, Image.notary ~output:notary_out ~input_pages:0 ())

let test_verifier_endorses_notary () =
  (* The full trust chain of the paper's §4: the notary locally attests
     to (a hash of) its signing key; the verifier enclave checks that
     attestation inside the enclave boundary and signs a quote; a
     remote party, holding only the verifier's public key and the
     notary's expected measurement, ends up trusting the notary's
     key — across two native enclaves and an untrusted OS relay. *)
  let os = Os.boot ~seed:0xCAB1E ~npages:96 () in
  let notary_out, n_img = notary_image in
  let os, notary =
    match Loader.load os n_img with
    | Ok r -> r
    | Error e -> Alcotest.failf "notary load: %a" Loader.pp_error e
  in
  let os, verifier =
    match Loader.load os verifier_image with
    | Ok r -> r
    | Error e -> Alcotest.failf "verifier load: %a" Loader.pp_error e
  in
  let nth = List.hd notary.Loader.threads and vth = List.hd verifier.Loader.threads in
  (* Initialise both enclaves (each runs keygen via GetRandom SVCs). *)
  let os, e, _ = enter0 os ~thread:nth in
  check_err "notary init" Errors.Success e;
  let os, e, _ = enter0 os ~thread:vth in
  check_err "verifier init" Errors.Success e;
  let verifier_pub =
    { Rsa.n = Bignum.of_bytes_be (Os.read_bytes os verifier_out 128); e = Rsa.default_e }
  in
  (* The notary attests to its public key. *)
  let os, e, _ =
    Os.enter os ~thread:nth
      ~args:(Word.of_int Komodo_user.Notary.cmd_attest_key, Word.zero, Word.zero)
  in
  check_err "notary attest" Errors.Success e;
  let notary_pub_bytes = Os.read_bytes os notary_out 128 in
  let mac = Os.read_bytes os (Word.add notary_out (Word.of_int 128)) 32 in
  let data = Sha256.digest notary_pub_bytes in
  (* The OS relays (data, notary measurement, MAC) to the verifier. *)
  let os = Os.write_bytes os verifier_in (data ^ notary.Loader.measurement ^ mac) in
  let os, e, verdict =
    Os.enter os ~thread:vth ~args:(Word.of_int Verifier.cmd_endorse, Word.zero, Word.zero)
  in
  check_err "endorse" Errors.Success e;
  Alcotest.(check int) "verifier vouches for the notary" 0 (Word.to_int verdict);
  let quote = Os.read_bytes os verifier_out 128 in
  (* Remote side: the quote binds the notary's key hash to the notary's
     measurement under the verifier's key. *)
  Alcotest.(check bool) "remote party trusts the chain" true
    (Verifier.check_quote ~pub:verifier_pub ~data
       ~measurement:notary.Loader.measurement ~quote);
  (* And now the remote party can check notary signatures directly. *)
  let notary_pub = { Rsa.n = Bignum.of_bytes_be notary_pub_bytes; e = Rsa.default_e } in
  let os = Os.write_bytes os Os.document_base (String.make 64 'd') in
  let os, e, stamp =
    Os.enter os ~thread:nth
      ~args:
        ( Word.of_int Komodo_user.Notary.cmd_notarize,
          Komodo_user.Notary.input_va,
          Word.of_int 64 )
  in
  (* The notary's document window must be mapped for this to work; this
     image did not map one, so a fault here is the expected rejection
     path — tolerate either, but if it succeeded, verify the signature. *)
  (if Errors.is_success e then begin
     let signature = Os.read_bytes os notary_out 128 in
     let digest =
       Sha256.digest (String.make 64 'd' ^ Word.to_bytes_be (Word.of_int (Word.to_int stamp - 1)))
     in
     Alcotest.(check bool) "notary signature verifies under endorsed key" true
       (Rsa.verify notary_pub ~digest ~signature)
   end);
  check_wf "two native enclaves" os

let suite =
  suite
  @ [
      Alcotest.test_case "verifier endorses the notary (full chain)" `Slow
        test_verifier_endorses_notary;
    ]
