(** The attestation-verifier enclave: remote attestation as the paper
    defers it.

    Komodo's monitor implements only *local* attestation (a MAC under a
    boot secret that never leaves the monitor); the paper's design
    "defers remote attestation to a trusted enclave (that we have yet
    to implement)" (§4). This is that enclave — the analogue of SGX's
    quoting enclave:

    - at initialisation it gathers entropy, generates an RSA signing
      key, publishes the public key, and locally attests to its hash —
      so anyone on the machine can check the key belongs to an enclave
      measuring as the verifier;
    - its [cmd_endorse] command takes a local attestation tuple
      (data, measurement, MAC) from its input page, checks it with the
      monitor's Verify SVC, and — only if genuine — signs
      "komodo-quote" || data || measurement with its key, producing a
      *quote* checkable by a remote party who holds (a hash of) the
      verifier's public key.

    The OS relays all the bytes, but can forge nothing: the MAC check
    happens inside the enclave, and the signing key never leaves its
    secure pages. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Exec = Komodo_machine.Exec
module Cost = Komodo_machine.Cost
module Sha256 = Komodo_crypto.Sha256
module Rsa = Komodo_crypto.Rsa
module Abi = Komodo_core.Abi
open Native_util

let native_id = 2
let rsa_bits = 1024

(* Virtual-address layout. *)
let code_va = Word.zero
let state_va = Word.of_int 0x1000 (* secure RW: phase, seed, key *)
let input_va = Word.of_int 0x10_0000 (* insecure: attestation tuples in *)
let output_va = Word.of_int 0x20_0000 (* insecure: pubkey/quotes out *)

(* State-page word offsets. *)
let off_phase = 0
let off_seed = 4
let off_n = 16 (* modulus, 32 words *)
let off_d = 48 (* private exponent, 32 words *)

let ph_attesting = 6

(* Commands (r0 of Enter once ready). *)
let cmd_init = 0
let cmd_endorse = 1

(** The domain-separation prefix of quotes. *)
let quote_prefix = "komodo-quote"

let seeding = { state_va; off_phase; off_seed }

let state_word s i = load s (Word.add state_va (Word.of_int (4 * i)))
let set_state_word s i v = store s (Word.add state_va (Word.of_int (4 * i))) v

let read_key s =
  let n = words_to_bignum (read_words s (Word.add state_va (Word.of_int (4 * off_n))) 32) in
  let d = words_to_bignum (read_words s (Word.add state_va (Word.of_int (4 * off_d))) 32) in
  { Rsa.pub = { Rsa.n; e = Rsa.default_e }; d }

let pubkey_words s = read_words s (Word.add state_va (Word.of_int (4 * off_n))) 32

(** Quote body: what gets hashed and signed. *)
let quote_body ~data ~measurement = quote_prefix ^ data ^ measurement

(** OS/remote-side check of a quote against the verifier's public key. *)
let check_quote ~pub ~data ~measurement ~quote =
  Rsa.verify pub ~digest:(Sha256.digest (quote_body ~data ~measurement)) ~signature:quote

(* -- Phase handlers ------------------------------------------------------- *)

let finish_init s seed =
  let key = generate_key ~bits:rsa_bits seed in
  let s = write_words s (Word.add state_va (Word.of_int (4 * off_n))) (bignum_to_words ~bits:rsa_bits key.Rsa.pub.Rsa.n) in
  let s = write_words s (Word.add state_va (Word.of_int (4 * off_d))) (bignum_to_words ~bits:rsa_bits key.Rsa.d) in
  (* Publish the public key, then locally attest to its hash: the local
     attestation is the root that lets machine-local parties trust the
     published key. *)
  let s = write_words s output_va (bignum_to_words ~bits:rsa_bits key.Rsa.pub.Rsa.n) in
  let s = set_state_word s off_phase (Word.of_int ph_attesting) in
  let data = Sha256.digest_words_of (Sha256.digest (words_to_bytes (pubkey_words s))) in
  let s = State.charge (Rsa.sign_cycles ~bits:rsa_bits * 12) s in
  svc s Abi.svc_attest data

let finish_attest s =
  (* MAC over (pubkey hash, our measurement) delivered in r1-r8. *)
  let mac = List.init 8 (fun i -> ureg s (i + 1)) in
  let s = write_words s (Word.add output_va (Word.of_int 128)) mac in
  let s = set_state_word s off_phase (Word.of_int seeding_phase_ready) in
  exit_with (State.charge 64 s) Word.zero

(** Endorse: input page carries data[32] ‖ measurement[32] ‖ mac[32].
    Verify locally, and if genuine sign the quote. Exit value: 0 =
    quote written, 1 = attestation did not verify. *)
let handle_endorse s =
  (* The Verify SVC reads the tuple through our page table; the input
     page is mapped read-only into our space, so no staging is needed. *)
  svc (State.charge 64 (set_state_word s off_phase (Word.of_int 7))) Abi.svc_verify
    [ input_va ]

let finish_endorse s =
  (* r0 = Verify error, r1 = verdict. *)
  let ok = Word.to_int (ureg s 0) = 0 && Word.to_int (ureg s 1) = 1 in
  let s = set_state_word s off_phase (Word.of_int seeding_phase_ready) in
  if not ok then exit_with s Word.one
  else begin
    let tuple = read_words s input_va 24 in
    let bytes = words_to_bytes tuple in
    let data = String.sub bytes 0 32 in
    let measurement = String.sub bytes 32 32 in
    let key = read_key s in
    let quote = Rsa.sign key (Sha256.digest (quote_body ~data ~measurement)) in
    let s = write_words s output_va (bytes_to_words quote) in
    let s = State.charge (Rsa.sign_cycles ~bits:rsa_bits + Cost.sha256_bytes ~finalise:true 76) s in
    exit_with s Word.zero
  end

let native : Exec.native =
 fun s ->
  try
    let phase = Word.to_int (state_word s off_phase) in
    if phase < 5 then seeding_step seeding s ~phase ~done_:finish_init
    else if phase = ph_attesting then finish_attest s
    else if phase = 7 then finish_endorse s
    else begin
      let cmd = Word.to_int (ureg s 0) in
      if cmd = cmd_endorse then handle_endorse s
      else if cmd = cmd_init then exit_with s Word.zero
      else exit_with s (Word.of_int 2)
    end
  with Enclave_fault f -> { Exec.nstate = s; nevent = Exec.Ev_fault f }

(** Registry covering both native services (notary and verifier). *)
let registry id =
  if id = native_id then Some native else Notary.registry id

let executor ?fuel ?probe ?inject () =
  Komodo_core.Uexec.concrete ?fuel ~native:registry ?probe ?inject ()
