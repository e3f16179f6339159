(* AES-256-GCM (NIST SP 800-38D).

   The vault's sealing primitive: authenticated encryption whose tag
   covers both the ciphertext and the caller's additional data, so a
   sealed blob that the OS flips a single bit of — data, header, or
   tag — fails to open rather than silently decrypting to garbage.
   Only 96-bit nonces are supported (the J0 = IV ‖ 0^31 ‖ 1 fast
   path); the vault derives its nonces from HKDF output and an epoch
   counter, never reusing one under a key. *)

let tag_size = 16
let nonce_size = 12

(* -- GF(2^128) ------------------------------------------------------------- *)

(* A block is (hi, lo), big-endian: bit 0 of the GCM spec is the MSB
   of [hi]. *)
type block = int64 * int64

let zero_block = (0L, 0L)

let xor_block (ah, al) (bh, bl) = (Int64.logxor ah bh, Int64.logxor al bl)

let block_of_bytes s off =
  let b i = Int64.of_int (Char.code s.[off + i]) in
  let word j =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (b (j + i))
    done;
    !v
  in
  (word 0, word 8)

let bytes_of_block (hi, lo) =
  String.init 16 (fun i ->
      let w = if i < 8 then hi else lo in
      let shift = 8 * (7 - (i mod 8)) in
      Char.chr (Int64.to_int (Int64.shift_right_logical w shift) land 0xff))

(* Right shift of the 128-bit value by one bit. *)
let shift_right (hi, lo) =
  let lo' =
    Int64.logor (Int64.shift_right_logical lo 1) (Int64.shift_left hi 63)
  in
  (Int64.shift_right_logical hi 1, lo')

(* The reduction polynomial R = 11100001 ‖ 0^120. *)
let r_poly = 0xe100000000000000L

(* Block multiplication, SP 800-38D algorithm 1: bit-serial, MSB
   first. 128 iterations per block — the model favours audit over
   speed, like the rest of lib/crypto. *)
let gmul x (yh, yl) =
  let z = ref zero_block and v = ref x in
  let step bit =
    if bit then z := xor_block !z !v;
    let _, vl = !v in
    let shifted = shift_right !v in
    v :=
      (if Int64.logand vl 1L = 1L then
         let sh, sl = shifted in
         (Int64.logxor sh r_poly, sl)
       else shifted)
  in
  for i = 0 to 63 do
    step (Int64.logand (Int64.shift_right_logical yh (63 - i)) 1L = 1L)
  done;
  for i = 0 to 63 do
    step (Int64.logand (Int64.shift_right_logical yl (63 - i)) 1L = 1L)
  done;
  !z

(* GHASH absorb of arbitrary bytes, zero-padded to a block boundary. *)
let ghash_absorb h acc s =
  let n = String.length s in
  let acc = ref acc in
  let i = ref 0 in
  while !i < n do
    let block =
      if n - !i >= 16 then block_of_bytes s !i
      else
        block_of_bytes (String.sub s !i (n - !i) ^ String.make (16 - (n - !i)) '\x00') 0
    in
    acc := gmul h (xor_block !acc block);
    i := !i + 16
  done;
  !acc

let len_block aad_len ct_len =
  (Int64.of_int (8 * aad_len), Int64.of_int (8 * ct_len))

(* -- Counter mode ---------------------------------------------------------- *)

type key = { sched : Aes.key; h : block }

let of_secret secret =
  let sched = Aes.expand secret in
  { sched; h = block_of_bytes (Aes.encrypt_block sched (String.make 16 '\x00')) 0 }

let inc32 (hi, lo) =
  let low32 = Int64.logand (Int64.add lo 1L) 0xFFFFFFFFL in
  (hi, Int64.logor (Int64.logand lo 0xFFFFFFFF00000000L) low32)

let gctr sched icb s =
  let n = String.length s in
  let out = Bytes.create n in
  let cb = ref icb in
  let i = ref 0 in
  while !i < n do
    let ks = Aes.encrypt_block sched (bytes_of_block !cb) in
    let m = min 16 (n - !i) in
    for j = 0 to m - 1 do
      Bytes.set out (!i + j)
        (Char.chr (Char.code s.[!i + j] lxor Char.code ks.[j]))
    done;
    cb := inc32 !cb;
    i := !i + 16
  done;
  Bytes.to_string out

let j0 nonce =
  if String.length nonce <> nonce_size then
    invalid_arg "Gcm: nonce must be 12 bytes";
  block_of_bytes (nonce ^ "\x00\x00\x00\x01") 0

let tag_of key ~nonce ~aad ct =
  let s = ghash_absorb key.h zero_block aad in
  let s = ghash_absorb key.h s ct in
  let s = gmul key.h (xor_block s (len_block (String.length aad) (String.length ct))) in
  gctr key.sched (j0 nonce) (bytes_of_block s)

(** [encrypt ~key ~nonce ~aad pt] is [(ciphertext, tag)]; the 16-byte
    tag authenticates [aad] and the ciphertext. *)
let encrypt ~key ~nonce ~aad pt =
  let ct = gctr key.sched (inc32 (j0 nonce)) pt in
  (ct, tag_of key ~nonce ~aad ct)

(** The tag check is [Hmac.equal_tags]: tags that are not exactly 16
    bytes never verify — truncated tags are rejected outright, not
    compared prefix-wise. *)
let decrypt ~key ~nonce ~aad ~tag ct =
  if Hmac.equal_tags (tag_of key ~nonce ~aad ct) tag then
    Some (gctr key.sched (inc32 (j0 nonce)) ct)
  else None

(* -- Cost model ------------------------------------------------------------ *)

let blocks n = (n + 15) / 16

(** AES block-cipher invocations a seal/open of [len] payload bytes
    costs: one for the GHASH subkey amortised out, one for the tag
    mask, one per payload block. *)
let aes_blocks ~len = 1 + blocks len

(** GF(2^128) multiplications: one per padded AAD block, one per
    padded payload block, one for the length block. *)
let ghash_blocks ~aad ~len = blocks aad + blocks len + 1
