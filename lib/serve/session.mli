(** Per-session attestation flow: stage a nonce, enter a notary
    enclave, obtain the monitor's MAC (Attest SVC), verify it —
    host-side against one recomputed {!Komodo_core.Attest.create} with
    {!Komodo_crypto.Hmac.equal_tags}, or in-enclave through the Verify
    SVC — and confirm tampered MACs are rejected. Latencies are model
    cycles. *)

module Word = Komodo_machine.Word
module Os = Komodo_os.Os
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors

val shared_va : Word.t
(** VA both programs map their insecure shared window at. *)

val nonce_bytes : int

val notary_image : shared_target:Word.t -> Image.t
(** The notary enclave: MACs the nonce staged in its shared window. *)

val verifier_image : shared_target:Word.t -> Image.t
(** The verifier enclave: checks (nonce, measurement, MAC) from its
    inbox via the Verify SVC. *)

val pages_per_enclave : int
(** Secure pages one serving enclave consumes (address space, L1, L2,
    code, thread) — the unit of the pool's page-budget admission. *)

type verdict = {
  v_err : Errors.t;
  v_enter_cycles : int;
  v_verify_cycles : int;
  v_mac_ok : bool;
  v_tamper_rejected : bool;
}

val attest :
  os:Os.t ->
  thread:int ->
  shared:Word.t ->
  measurement:string ->
  nonce:string ->
  Os.t * verdict
(** One full session on a notary slot. @raise Invalid_argument unless
    the nonce is 32 bytes. *)

val enclave_verify :
  os:Os.t ->
  thread:int ->
  shared:Word.t ->
  measurement:string ->
  nonce:string ->
  mac:string ->
  Os.t * int * bool
(** [(os, enter cycles, accepted)] for the in-enclave verify path. *)

val published_mac : Os.t -> shared:Word.t -> string
(** The 32-byte MAC a notary slot last published. *)
