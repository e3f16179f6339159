(** HMAC-SHA256 (RFC 2104 / FIPS 198-1).

    Komodo attestations are MACs under a boot-time secret over the
    attesting enclave's measurement and 32 bytes of enclave-provided
    data (§4). The monitor both creates ([Attest]) and checks
    ([Verify]) these MACs, so a plain MAC (rather than signatures)
    suffices for local attestation. *)

let block_size = 64

let normalize_key key =
  let key =
    if String.length key > block_size then Sha256.digest key else key
  in
  key ^ String.make (block_size - String.length key) '\x00'

let xor_bytes s c = String.map (fun ch -> Char.chr (Char.code ch lxor c)) s

(* A key with its inner and outer pad blocks already absorbed. *)
type keyed = { key : string; inner : Sha256.ctx; outer : Sha256.ctx }

let keyed key =
  let k = normalize_key key in
  {
    key;
    inner = Sha256.absorb Sha256.init (xor_bytes k 0x36);
    outer = Sha256.absorb Sha256.init (xor_bytes k 0x5c);
  }

(* The last key each domain MACed under. A platform MACs under one boot
   secret, so reusing its pad blocks saves two of a MAC's compressions. *)
let last_keyed = Domain.DLS.new_key (fun () -> ref (keyed ""))

(** [mac ~key msg] is HMAC-SHA256(key, msg), 32 raw bytes. *)
let mac ~key msg =
  let last = Domain.DLS.get last_keyed in
  let k =
    if String.equal !last.key key then !last
    else begin
      let k = keyed key in
      last := k;
      k
    end
  in
  Sha256.finalize (Sha256.absorb k.outer (Sha256.finalize (Sha256.absorb k.inner msg)))

(** Constant-shape comparison (the model analogue of a data-independent
    compare): false on a length mismatch, otherwise always scans the
    full length. *)
let equal_tags a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
  !diff = 0

let verify ~key msg tag = equal_tags (mac ~key msg) tag

(** Number of SHA-256 compressions a MAC over [n] message bytes costs:
    two keyed blocks plus the padded message on the inner hash, plus the
    outer hash of two blocks (key block + padded digest). Used by the
    cycle cost model for Attest/Verify. *)
let compressions n =
  let inner = 1 + ((n + 1 + 8 + 63) / 64) in
  let outer = 1 + 1 in
  inner + outer
