(** The sealed-storage vault enclave.

    A native service keeping a small secret state it can {e seal}
    into a blob safe to hand to the untrusted OS and later {e unseal}
    from whatever the OS hands back — refusing loudly (never silently
    accepting) when the disk lied. The sealing key is derived
    EGETKEY-style from the monitor's local-attestation MAC over a
    fixed constant, so it is bound to both the boot secret and this
    enclave's exact measurement; freshness comes from a trusted
    monotonic NV counter whose current value the caller passes in
    (the RPMB-style hardware assumption of §9). *)

module Word = Komodo_machine.Word
module Exec = Komodo_machine.Exec

val native_id : int
(** 3 (notary = 1, verifier = 2). *)

val code_va : Word.t
val state_va : Word.t
val input_va : Word.t  (** insecure: blobs from the OS *)
val output_va : Word.t  (** insecure: blobs / digests to the OS *)

val state_words : int
(** Words of secret state (16). *)

val state_bytes : int

(** Entry commands (r0 of Enter while ready). *)

val cmd_init : int
val cmd_update : int  (** r1 = word index, r2 = value *)
val cmd_seal : int  (** r1 = current NV counter; seals epoch = r1+1 *)
val cmd_unseal : int  (** r1 = current NV counter (expected epoch) *)
val cmd_digest : int  (** publish SHA-256(state) on the output page *)

(** Unseal verdicts (the enclave's exit value). *)

val verdict_accept : int  (** 0: state restored *)
val verdict_tampered : int  (** 2: authentication failed *)
val verdict_stale : int  (** 3: genuine but rolled back *)

val blob_words : int
(** Sealed-blob size in words (magic ‖ epoch ‖ ct ‖ tag). *)

val blob_bytes : int
val blob_magic : Word.t

val seal_cycles : aad:int -> len:int -> int
(** Model cycles one seal/unseal of [len] payload bytes charges. *)

val derive_cycles : int
(** Model cycles the one-time HKDF seal-key derivation charges. *)

val executor :
  ?fuel:int ->
  ?probe:(steps:int -> unit) ->
  ?inject:Komodo_machine.Exec.inject ->
  ?bug:Komodo_core.Bugs.t ->
  unit ->
  Komodo_core.Uexec.t
(** The concrete executor with all three native services (vault,
    verifier, notary). The vault reacts only to a
    {!Komodo_core.Bugs.Vault_enclave} [bug], which turns off one of the
    checks unseal's refuse-and-report rests on. *)
