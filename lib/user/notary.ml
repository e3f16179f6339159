(** The trusted notary enclave (§8.2).

    Ported (conceptually) from Ironclad: the notary assigns logical
    timestamps to documents. When first entered it gathers entropy from
    the monitor, constructs an RSA key pair and a monotonic counter, and
    publishes (and can attest to) its public key. On each notarise call
    it hashes the provided document with the current counter value,
    signs the hash, increments the counter, and returns the stamp.

    The notary runs as a *native service* (see {!Komodo_machine.Exec}):
    its inner loops (SHA-256, RSA) execute as OCaml but all of its state
    lives in enclave memory, every access goes through its page table,
    and monitor services are obtained by taking real SVC exceptions —
    an event-driven state machine exactly like compiled enclave code,
    with its phase tracked in a state page rather than a program
    counter. Cycle costs for hashing, signing and copying are charged
    explicitly so Figure 5 can be reproduced. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Exec = Komodo_machine.Exec
module Cost = Komodo_machine.Cost
module Sha256 = Komodo_crypto.Sha256
module Rsa = Komodo_crypto.Rsa
module Abi = Komodo_core.Abi
open Native_util

let native_id = 1
let rsa_bits = 1024

(* -- Virtual-address layout (fixed by the notary's image) -------------- *)

let code_va = Word.zero
let state_va = Word.of_int 0x1000 (* secure RW state page *)
let heap_va = Word.of_int 0x2000 (* second secure RW page for key material *)
let input_va = Word.of_int 0x10_0000 (* insecure: document buffer *)
let output_va = Word.of_int 0x20_0000 (* insecure: results to the OS *)

(* State-page word offsets. *)
let off_phase = 0
let off_counter = 1
let off_seed = 4 (* 4 words *)
let off_n = 16 (* modulus, 32 words *)
let off_d = 48 (* private exponent, 32 words *)

(* Phases: 0 = fresh, 1..4 = collecting entropy, 5 = ready, 6 = a key
   attestation is in flight. *)
let ph_ready = seeding_phase_ready
let ph_attesting = 6

(* Entry commands (r0 of Enter while ready). *)
let cmd_init = 0
let cmd_notarize = 1
let cmd_attest_key = 2

let seeding = { state_va; off_phase; off_seed }

let state_word s i = load s (Word.add state_va (Word.of_int (4 * i)))
let set_state_word s i v = store s (Word.add state_va (Word.of_int (4 * i))) v

let read_key s =
  let at off = Word.add state_va (Word.of_int (4 * off)) in
  let n = words_to_bignum (read_words s (at off_n) (key_words rsa_bits)) in
  let d = words_to_bignum (read_words s (at off_d) (key_words rsa_bits)) in
  { Rsa.pub = { Rsa.n; e = Rsa.default_e }; d }

(** Public-key digest: what the notary attests to. *)
let pubkey_digest s =
  let at = Word.add state_va (Word.of_int (4 * off_n)) in
  Sha256.digest (words_to_bytes (read_words s at (key_words rsa_bits)))

(* -- Phase handlers ------------------------------------------------------ *)

(** All four entropy words collected: build and store the key pair,
    reset the counter, publish the public key. *)
let finish_init s seed =
  let key = generate_key ~bits:rsa_bits seed in
  let at off = Word.add state_va (Word.of_int (4 * off)) in
  let s = write_words s (at off_n) (bignum_to_words ~bits:rsa_bits key.Rsa.pub.Rsa.n) in
  let s = write_words s (at off_d) (bignum_to_words ~bits:rsa_bits key.Rsa.d) in
  let s = set_state_word s off_counter Word.zero in
  let s = set_state_word s off_phase (Word.of_int ph_ready) in
  let s = write_words s output_va (bignum_to_words ~bits:rsa_bits key.Rsa.pub.Rsa.n) in
  (* Keygen dominates everything else; a multi-signing-cost estimate
     stands in for the prime search. *)
  let s = State.charge (Rsa.sign_cycles ~bits:rsa_bits * 12) s in
  exit_with s Word.zero

let handle_notarize s =
  let doc_va = ureg s 1 and len = Word.to_int (ureg s 2) in
  if len < 0 || len > 0x40_0000 || len mod 4 <> 0 then exit_with s Word.one
  else begin
    let words = read_words s doc_va (len / 4) in
    let counter = state_word s off_counter in
    (* Hash document || counter, sign, bump the counter. *)
    let digest = Sha256.digest (words_to_bytes words ^ Word.to_bytes_be counter) in
    let key = read_key s in
    let signature = Rsa.sign key digest in
    let s = set_state_word s off_counter (Word.add counter Word.one) in
    let s = write_words s output_va (bytes_to_words signature) in
    (* Cycle accounting: document copy-in + hash + sign + copy-out. *)
    let s = State.charge (Cost.mem_access * (len / 4)) s in
    let s = State.charge (Cost.sha256_bytes ~finalise:true (len + 4)) s in
    let s = State.charge (Rsa.sign_cycles ~bits:rsa_bits) s in
    let s = State.charge (Cost.word_copy (String.length signature / 4)) s in
    exit_with s (Word.add counter Word.one)
  end

let handle_attest_key s =
  let s = set_state_word s off_phase (Word.of_int ph_attesting) in
  let data = Sha256.digest_words_of (pubkey_digest s) in
  svc (State.charge 64 s) Abi.svc_attest data

let handle_attest_result s =
  (* MAC delivered in r1-r8; publish it after the public key. *)
  let mac = List.init 8 (fun i -> ureg s (i + 1)) in
  let s = write_words s (Word.add output_va (Word.of_int (4 * key_words rsa_bits))) mac in
  let s = set_state_word s off_phase (Word.of_int ph_ready) in
  exit_with (State.charge 64 s) Word.zero

(** The notary's top-level dispatch: invoked on every entry to user
    mode (fresh Enter or return from an SVC). *)
let native : Exec.native =
 fun s ->
  try
    let phase = Word.to_int (state_word s off_phase) in
    if phase < ph_ready then seeding_step seeding s ~phase ~done_:finish_init
    else if phase = ph_attesting then handle_attest_result s
    else begin
      let cmd = Word.to_int (ureg s 0) in
      if cmd = cmd_notarize then handle_notarize s
      else if cmd = cmd_attest_key then handle_attest_key s
      else if cmd = cmd_init then exit_with s Word.zero (* already initialised *)
      else exit_with s (Word.of_int 2)
    end
  with Enclave_fault f -> { Exec.nstate = s; nevent = Exec.Ev_fault f }

let registry id = if id = native_id then Some native else None

(** An executor with the notary registered. *)
let executor ?fuel ?probe () = Komodo_core.Uexec.concrete ?fuel ~native:registry ?probe ()

(* -- Native-process baseline (Figure 5) ---------------------------------
   The same workload running as an ordinary process: identical compute
   (hash + sign + copies), no enclave crossings, no monitor. *)

type baseline = { key : Rsa.priv; mutable counter : int }

let baseline_create ~seed =
  let words = List.init 4 (fun i -> Word.of_int (seed + i)) in
  { key = generate_key ~bits:rsa_bits words; counter = 0 }

let baseline_notarize b document =
  let digest =
    Sha256.digest (document ^ Word.to_bytes_be (Word.of_int b.counter))
  in
  let signature = Rsa.sign b.key digest in
  b.counter <- b.counter + 1;
  let len = String.length document in
  let cycles =
    (Cost.mem_access * (len / 4))
    + Cost.sha256_bytes ~finalise:true (len + 4)
    + Rsa.sign_cycles ~bits:rsa_bits
    + Cost.word_copy (String.length signature / 4)
  in
  (signature, cycles)
