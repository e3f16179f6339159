(** AES-256-GCM (NIST SP 800-38D), from scratch like [Sha256].

    The vault enclave's sealing primitive: the tag authenticates both
    the ciphertext and the caller's additional data, so any OS-side
    bit-flip — payload, header, or tag — makes the blob refuse to
    open instead of silently decrypting to garbage. Only 96-bit
    nonces are supported (the J0 = IV ‖ 0^31 ‖ 1 fast path). *)

val tag_size : int
(** 16 bytes. *)

val nonce_size : int
(** 12 bytes. *)

type key
(** An AES-256 key schedule plus the precomputed GHASH subkey. *)

val of_secret : string -> key
(** @raise Invalid_argument unless the secret is 32 bytes. *)

val encrypt :
  key:key -> nonce:string -> aad:string -> string -> string * string
(** [encrypt ~key ~nonce ~aad pt] is [(ciphertext, tag)]. Never reuse
    a nonce under a key. @raise Invalid_argument unless the nonce is
    12 bytes. *)

val decrypt :
  key:key -> nonce:string -> aad:string -> tag:string -> string -> string option
(** [None] if the tag does not authenticate [aad] and the ciphertext.
    The comparison is {!Hmac.equal_tags}; tags that are not exactly 16
    bytes never verify. *)

val aes_blocks : len:int -> int
(** AES invocations sealing/opening [len] payload bytes costs (cost
    model, like [Hmac.compressions]). *)

val ghash_blocks : aad:int -> len:int -> int
(** GF(2^128) multiplications the same operation costs. *)
