(** The attestation-verifier enclave: remote attestation as the paper
    defers it (§4) — the analogue of SGX's quoting enclave.

    At initialisation it generates an RSA signing key, publishes the
    public key and locally attests to its hash, so machine-local
    parties can check the key belongs to an enclave measuring as the
    verifier. Its endorse command takes a local attestation tuple
    (data ‖ measurement ‖ MAC) from its input page, checks it with the
    monitor's Verify SVC, and — only if genuine — signs a *quote* a
    remote party can check knowing just the verifier's public key. *)

module Word = Komodo_machine.Word
module Exec = Komodo_machine.Exec
module Rsa = Komodo_crypto.Rsa

val native_id : int
val rsa_bits : int

val code_va : Word.t
val state_va : Word.t
val input_va : Word.t  (** insecure: attestation tuples in *)
val output_va : Word.t  (** insecure: public key / quotes out *)

val cmd_init : int

val cmd_endorse : int
(** Exit value 0 = quote written to the output page; 1 = the local
    attestation did not verify. *)

val quote_prefix : string
val quote_body : data:string -> measurement:string -> string

val check_quote : pub:Rsa.pub -> data:string -> measurement:string -> quote:string -> bool
(** The remote party's side. *)

val native : Exec.native

val registry : int -> Exec.native option
(** Covers both native services (verifier and notary). *)

val executor :
  ?fuel:int ->
  ?probe:(steps:int -> unit) ->
  ?inject:Komodo_machine.Exec.inject ->
  unit ->
  Komodo_core.Uexec.t
