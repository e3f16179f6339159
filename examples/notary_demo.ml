(* The notary enclave (paper §8.2), end to end.

   The notary assigns logical timestamps: on initialisation it draws
   entropy from the monitor, generates an RSA key pair and a monotonic
   counter, and publishes its public key; each notarise call signs
   H(document || counter) and bumps the counter. The OS verifies the
   returned signatures against the published key — and we show a
   tampered document fails.

   Run with: dune exec examples/notary_demo.exe *)

module Word = Komodo_machine.Word
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Notary = Komodo_user.Notary
module Sha256 = Komodo_crypto.Sha256
module Bignum = Komodo_crypto.Bignum
module Rsa = Komodo_crypto.Rsa

(* Shared pages: output (pubkey/signatures to the OS) and a 16 kB
   document input window. *)
let notary_image = Image.notary ~input_pages:4 ()

let () =
  let os = Os.boot ~seed:1701 ~npages:64 () in
  let os, notary =
    match Loader.load os notary_image with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "notary load: %a" Loader.pp_error e)
  in
  let thread = List.hd notary.Loader.threads in
  Printf.printf "notary measurement: %s...\n"
    (String.sub (Sha256.to_hex notary.Loader.measurement) 0 16);

  (* Initialise: the notary collects entropy via GetRandom SVCs and
     generates its key pair (one Enter, several SVC round trips). *)
  let c0 = Os.cycles os in
  let os, err, _ = Os.enter os ~thread ~args:(Word.zero, Word.zero, Word.zero) in
  assert (Errors.is_success err);
  Printf.printf "initialised in %.1f ms (simulated)\n"
    (Komodo_machine.Cost.cycles_to_ms (Os.cycles os - c0));

  (* The public key was published to the shared page. *)
  let pub_n = Bignum.of_bytes_be (Os.read_bytes os Os.shared_base 128) in
  let pub = { Rsa.n = pub_n; e = Rsa.default_e } in
  Printf.printf "published RSA-%d public key\n" (Bignum.bits pub_n);

  (* Ask the notary to attest to its public key; check the MAC via the
     OS's knowledge of the expected measurement. (In a real deployment
     a verifier enclave would do this; the attestation key never leaves
     the monitor, so here we replay the check with the boot secret.) *)
  let os, err, _ =
    Os.enter os ~thread ~args:(Word.of_int Notary.cmd_attest_key, Word.zero, Word.zero)
  in
  assert (Errors.is_success err);
  let mac = Os.read_bytes os (Word.add Os.shared_base (Word.of_int 128)) 32 in
  let expected_data = Sha256.digest (Os.read_bytes os Os.shared_base 128) in
  let genuine =
    Komodo_core.Attest.verify ~key:os.Os.mon.Komodo_core.Monitor.attest_key
      ~measurement:notary.Loader.measurement ~data:expected_data ~mac
  in
  Printf.printf "attestation over public key verifies: %b\n" genuine;
  assert genuine;

  (* Notarise two documents. *)
  let notarise os doc =
    let padded = doc ^ String.make ((4 - (String.length doc mod 4)) mod 4) '\000' in
    let os = Os.write_bytes os Os.document_base padded in
    let os, err, stamp =
      Os.enter os ~thread
        ~args:
          ( Word.of_int Notary.cmd_notarize,
            Notary.input_va,
            Word.of_int (String.length padded) )
    in
    assert (Errors.is_success err);
    let signature = Os.read_bytes os Os.shared_base 128 in
    (os, Word.to_int stamp, padded, signature)
  in
  let os, stamp1, doc1, sig1 = notarise os "the quick brown fox " in
  let os, stamp2, _doc2, _sig2 = notarise os "jumps over the lazy dog!" in
  Printf.printf "notarised two documents: counters %d, %d\n" stamp1 stamp2;
  assert (stamp2 = stamp1 + 1);

  (* OS-side verification: counter was stamp1 - 1 when doc1 was signed. *)
  let digest1 = Sha256.digest (doc1 ^ Word.to_bytes_be (Word.of_int (stamp1 - 1))) in
  Printf.printf "signature on document 1 verifies: %b\n"
    (Rsa.verify pub ~digest:digest1 ~signature:sig1);
  assert (Rsa.verify pub ~digest:digest1 ~signature:sig1);

  (* Tampered document: must not verify. *)
  let tampered = Sha256.digest ("EVIL" ^ Word.to_bytes_be (Word.of_int (stamp1 - 1))) in
  Printf.printf "signature on tampered document verifies: %b\n"
    (Rsa.verify pub ~digest:tampered ~signature:sig1);
  assert (not (Rsa.verify pub ~digest:tampered ~signature:sig1));
  ignore os;
  print_endline "notary demo: OK"
