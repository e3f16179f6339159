(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    Komodo attestations are MACs under a boot-time secret over the
    attesting enclave's measurement and 32 bytes of enclave-provided
    data (§4); a plain MAC suffices for local attestation because both
    creation and checking happen inside the monitor. *)

val block_size : int
(** 64 bytes. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is HMAC-SHA256(key, msg), 32 raw bytes. Keys longer
    than a block are hashed down first. Each domain keeps the keyed
    inner and outer hash states of the last key it saw, so a MAC under
    the same key as the one before skips the two key-block
    compressions. *)

val equal_tags : string -> string -> bool
(** Constant-shape comparison of two tags: false on a length mismatch,
    otherwise always scans the full length (the model analogue of a
    data-independent compare). *)

val verify : key:string -> string -> string -> bool
(** [verify ~key msg tag] is [equal_tags (mac ~key msg) tag]. *)

val compressions : int -> int
(** SHA-256 compressions a MAC over [n] message bytes costs, pad blocks
    included whether or not {!mac} reused them; used by the cycle cost
    model for Attest/Verify. *)
