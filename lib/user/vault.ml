(* The sealed-storage vault enclave.

   Komodo's monitor protects enclave memory but leaves persistence to
   the untrusted OS (§9): anything that must survive a reboot goes to
   a disk the OS controls. The vault is the enclave-side answer — a
   native service that keeps a small secret state and can *seal* it
   into a blob safe to hand to the OS, and later *unseal* a blob the
   OS hands back, refusing loudly rather than silently accepting
   anything the disk lied about.

   Sealing key derivation mirrors SGX's EGETKEY using only the
   monitor services the paper already has: the enclave asks the
   monitor to Attest a fixed domain-separation constant, and the
   returned MAC — HMAC(boot secret, measurement ‖ constant), a value
   the OS never sees — is the measurement-bound root secret. HKDF
   expands it into an AES-256-GCM key and a nonce base. A different
   measurement (or a different boot secret) derives a different key,
   so blobs are bound to both the platform and the exact enclave.

   Freshness cannot come from inside the enclave (its RAM dies with
   the platform), so each seal takes the current value of a trusted
   monotonic counter — the RPMB-style NV counter the paper's §9
   assumes — and binds epoch = counter + 1 into both the GCM nonce
   and the authenticated header. Unseal distinguishes three verdicts:
   accept (0), tampered (2: authentication failed — any bit flip,
   reorder, truncation, or wipe), and stale (3: a genuine blob from
   an earlier epoch — a rollback). It never silently accepts. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Exec = Komodo_machine.Exec
module Cost = Komodo_machine.Cost
module Sha256 = Komodo_crypto.Sha256
module Gcm = Komodo_crypto.Gcm
module Hkdf = Komodo_crypto.Hkdf
module Abi = Komodo_core.Abi
module Bugs = Komodo_core.Bugs
open Native_util

let native_id = 3

(* -- Virtual-address layout (fixed by the vault's image) ---------------- *)

let code_va = Word.zero
let state_va = Word.of_int 0x1000 (* secure RW state page *)
let input_va = Word.of_int 0x10_0000 (* insecure: blobs from the OS *)
let output_va = Word.of_int 0x20_0000 (* insecure: blobs to the OS *)

(* State-page word offsets. *)
let off_phase = 0
let off_epoch = 1 (* last sealed/unsealed epoch (informational) *)
let off_key = 2 (* AES-256-GCM key, 8 words *)
let off_nonce = 10 (* nonce base, 3 words *)
let off_state = 16 (* the secret state, [state_words] words *)

let state_words = 16
let state_bytes = 4 * state_words

(* Phases: 0 = fresh, 1 = key-derivation attestation in flight,
   5 = ready (aligned with the other services' ready value). *)
let ph_fresh = 0
let ph_deriving = 1
let ph_ready = seeding_phase_ready

(* Entry commands (r0 of Enter while ready). *)
let cmd_init = 0
let cmd_update = 1
let cmd_seal = 2
let cmd_unseal = 3
let cmd_digest = 4

(* Unseal verdicts (the enclave's exit value). *)
let verdict_accept = 0
let verdict_tampered = 2
let verdict_stale = 3

(* -- Blob format --------------------------------------------------------- *)

(* magic ‖ epoch ‖ ct(epoch ‖ state) ‖ tag, all word-aligned:
   2 + 17 + 4 = 23 words. The clear header is authenticated as GCM
   AAD, and the epoch is repeated inside the plaintext, so a header
   tweak breaks authentication twice over. *)

let blob_magic = Word.of_bytes_be "KVLT" 0
let ct_bytes = 4 + state_bytes (* inner epoch + state *)
let blob_words = 2 + (ct_bytes / 4) + (Gcm.tag_size / 4)
let blob_bytes = 4 * blob_words

let aad_label = "komodo-vault-blob-v1"
let root_constant = "komodo-vault-seal-root-v1"
let key_info = "komodo-vault-seal-key-v1"
let nonce_info = "komodo-vault-nonce-v1"

(** The nonce for [epoch]: the derived base with the epoch folded
    into the trailing 32 bits — unique per epoch under one key,
    because the NV counter never repeats a value. *)
let nonce_for ~base epoch =
  String.mapi
    (fun i c ->
      if i < 8 then c
      else
        Char.chr
          (Char.code c
          lxor (Word.to_int (Word.shift_right_logical epoch (8 * (11 - i)))
                land 0xff)))
    base

let aad_for ~epoch = aad_label ^ Word.to_bytes_be blob_magic ^ Word.to_bytes_be epoch

(* -- Cost model ----------------------------------------------------------
   AES and GHASH cycle constants in the spirit of [Cost]: an unrolled
   software AES round is ~10 ALU+table ops per round, GHASH one
   table-driven multiply per block. *)

let aes_block_cycles = 160
let ghash_block_cycles = 96

let seal_cycles ~aad ~len =
  (Gcm.aes_blocks ~len * aes_block_cycles)
  + (Gcm.ghash_blocks ~aad ~len * ghash_block_cycles)

let derive_cycles =
  Cost.sha256_block
  * (Hkdf.compressions ~ikm_len:32 ~info_len:(String.length key_info) 32
    + Hkdf.compressions ~ikm_len:32 ~info_len:(String.length nonce_info) 12)

(* -- State-page access --------------------------------------------------- *)

let state_word s i = load s (Word.add state_va (Word.of_int (4 * i)))
let set_state_word s i v = store s (Word.add state_va (Word.of_int (4 * i))) v

let state_at i = Word.add state_va (Word.of_int (4 * i))

let read_secret s = words_to_bytes (read_words s (state_at off_state) state_words)
let gcm_key s = Gcm.of_secret (words_to_bytes (read_words s (state_at off_key) 8))

let nonce_base s =
  words_to_bytes (read_words s (state_at off_nonce) 3)

(* -- Phase handlers ------------------------------------------------------ *)

(** Fresh vault: ask the monitor to MAC the domain-separation
    constant under our measurement — the seal root. *)
let start_derive s =
  let s = set_state_word s off_phase (Word.of_int ph_deriving) in
  svc (State.charge 64 s) Abi.svc_attest
    (Sha256.digest_words_of (Sha256.digest root_constant))

(** MAC delivered in r1-r8: expand it into key material and go ready. *)
let finish_derive s =
  let root = words_to_bytes (List.init 8 (fun i -> ureg s (i + 1))) in
  let key = Hkdf.derive ~ikm:root ~info:key_info 32 in
  let nonce = Hkdf.derive ~ikm:root ~info:nonce_info 12 in
  let s = write_words s (state_at off_key) (bytes_to_words key) in
  let s = write_words s (state_at off_nonce) (bytes_to_words nonce) in
  let s = set_state_word s off_epoch Word.zero in
  let s = set_state_word s off_phase (Word.of_int ph_ready) in
  exit_with (State.charge derive_cycles s) Word.zero

(** Update one word of the secret state: r1 = index, r2 = value. *)
let handle_update s =
  let i = Word.to_int (ureg s 1) in
  if i < 0 || i >= state_words then exit_with s Word.one
  else
    let s = set_state_word s (off_state + i) (ureg s 2) in
    exit_with (State.charge Cost.mem_access s) Word.zero

(** Seal under epoch = NV counter (r1) + 1 and publish the blob. *)
let handle_seal s =
  let epoch = Word.add (ureg s 1) Word.one in
  let pt = Word.to_bytes_be epoch ^ read_secret s in
  let ct, tag =
    Gcm.encrypt ~key:(gcm_key s)
      ~nonce:(nonce_for ~base:(nonce_base s) epoch)
      ~aad:(aad_for ~epoch) pt
  in
  let blob = Word.to_bytes_be blob_magic ^ Word.to_bytes_be epoch ^ ct ^ tag in
  let s = write_words s output_va (bytes_to_words blob) in
  let s = set_state_word s off_epoch epoch in
  let s =
    State.charge
      (seal_cycles ~aad:(String.length (aad_for ~epoch)) ~len:(String.length pt)
      + Cost.word_copy blob_words)
      s
  in
  exit_with s Word.zero

(** Unseal the blob on the input page against the trusted NV counter
    value (r1). Verdicts: 0 accept (state restored), 2 tampered,
    3 stale. An armed {!Bugs.Vault_enclave} bug disables
    one of the two detections refuse-and-report rests on. *)
let handle_unseal ~bug s =
  let refuse s v = exit_with s (Word.of_int v) in
  let blob = words_to_bytes (read_words s input_va blob_words) in
  let expected = ureg s 1 in
  let magic = Word.of_bytes_be blob 0 in
  let epoch = Word.of_bytes_be blob 4 in
  let ct = String.sub blob 8 ct_bytes in
  let tag = String.sub blob (8 + ct_bytes) Gcm.tag_size in
  let s =
    State.charge
      (seal_cycles
         ~aad:(String.length (aad_for ~epoch))
         ~len:ct_bytes)
      s
  in
  if not (Word.equal magic blob_magic) then
    if bug = Some Bugs.Accept_tampered then refuse s verdict_accept
    else refuse s verdict_tampered
  else
    match
      Gcm.decrypt ~key:(gcm_key s)
        ~nonce:(nonce_for ~base:(nonce_base s) epoch)
        ~aad:(aad_for ~epoch) ~tag ct
    with
    | None ->
        (* Authentication failed: any bit of the blob was altered
           (or it was assembled from mismatched pieces). *)
        if bug = Some Bugs.Accept_tampered then refuse s verdict_accept
        else refuse s verdict_tampered
    | Some pt ->
        let inner = Word.of_bytes_be pt 0 in
        if not (Word.equal inner epoch) then refuse s verdict_tampered
        else if (not (Word.equal epoch expected)) && bug <> Some Bugs.Accept_stale
        then
          (* Genuine but not the epoch the NV counter vouches for:
             a replayed (rolled-back) blob. *)
          refuse s verdict_stale
        else
          let s =
            write_words s (state_at off_state)
              (bytes_to_words (String.sub pt 4 state_bytes))
          in
          let s = set_state_word s off_epoch epoch in
          refuse (State.charge (Cost.word_copy state_words) s) verdict_accept

(** Publish SHA-256(secret state) so a trusted party can check a
    restore without the state itself crossing to the OS in clear. *)
let handle_digest s =
  let d = Sha256.digest (read_secret s) in
  let s = write_words s output_va (bytes_to_words d) in
  exit_with
    (State.charge (Cost.sha256_bytes ~finalise:true state_bytes) s)
    Word.zero

(** Top-level dispatch, one burst per entry (fresh Enter or SVC
    return), parameterised on the armed self-test bug. *)
let native_with ?bug () : Exec.native =
 fun s ->
  try
    let phase = Word.to_int (state_word s off_phase) in
    if phase = ph_fresh then start_derive s
    else if phase = ph_deriving then finish_derive s
    else begin
      let cmd = Word.to_int (ureg s 0) in
      if cmd = cmd_update then handle_update s
      else if cmd = cmd_seal then handle_seal s
      else if cmd = cmd_unseal then handle_unseal ~bug s
      else if cmd = cmd_digest then handle_digest s
      else if cmd = cmd_init then exit_with s Word.zero
      else exit_with s (Word.of_int 10)
    end
  with Enclave_fault f -> { Exec.nstate = s; nevent = Exec.Ev_fault f }

(* All three native services: the vault, the verifier and the notary. *)
let executor ?fuel ?probe ?inject ?bug () =
  let vault = native_with ?bug () in
  let native id = if id = native_id then Some vault else Verifier.registry id in
  Komodo_core.Uexec.concrete ?fuel ~native ?probe ?inject ()
