module Word = Komodo_machine.Word

type digest = string

(* FIPS 180-4 constants: first 32 bits of the fractional parts of the
   cube roots of the first 64 primes. *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let h0 =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

type ctx = {
  h : int array;  (** 8-element chaining state, each in [0, 2^32) *)
  buffered : string;  (** pending partial block, < 64 bytes *)
  length : int;  (** total bytes absorbed *)
  blocks : int;  (** compressions performed *)
}

let init = { h = Array.copy h0; buffered = ""; length = 0; blocks = 0 }
let blocks_absorbed c = c.blocks

let mask = 0xFFFF_FFFF
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Schedule expansion + 64 rounds over [w], whose first 16 entries hold
   the message block. Shared by the string- and word-sourced absorbers. *)
let compress_rounds h w =
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot !e land mask land !g) in
    let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let temp2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + temp2) land mask
  done;
  [|
    (h.(0) + !a) land mask; (h.(1) + !b) land mask; (h.(2) + !c) land mask;
    (h.(3) + !d) land mask; (h.(4) + !e) land mask; (h.(5) + !f) land mask;
    (h.(6) + !g) land mask; (h.(7) + !hh) land mask;
  |]

(* One compression of a 64-byte block, starting at [off] in [msg]. *)
let compress h msg off =
  let w = Array.make 64 0 in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      (Char.code msg.[j] lsl 24)
      lor (Char.code msg.[j + 1] lsl 16)
      lor (Char.code msg.[j + 2] lsl 8)
      lor Char.code msg.[j + 3]
  done;
  compress_rounds h w

(* One compression of 16 words starting at [off] in [ws] — words are
   already the big-endian 32-bit lanes, so no byte shuffling at all. *)
let compress_words h ws off =
  let w = Array.make 64 0 in
  for i = 0 to 15 do
    w.(i) <- Word.to_int ws.(off + i)
  done;
  compress_rounds h w

let absorb ctx data =
  let input = ctx.buffered ^ data in
  let n = String.length input in
  let full = n / 64 in
  let h = ref ctx.h and blocks = ref ctx.blocks in
  for i = 0 to full - 1 do
    h := compress !h input (64 * i);
    incr blocks
  done;
  {
    h = !h;
    buffered = String.sub input (64 * full) (n - (64 * full));
    length = ctx.length + String.length data;
    blocks = !blocks;
  }

let bytes_of_words ws pos len =
  let b = Bytes.create (4 * len) in
  for i = 0 to len - 1 do
    let v = Word.to_int ws.(pos + i) in
    Bytes.unsafe_set b (4 * i) (Char.unsafe_chr ((v lsr 24) land 0xFF));
    Bytes.unsafe_set b ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set b ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set b ((4 * i) + 3) (Char.unsafe_chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string b

let absorb_words ctx ws pos len =
  if len <= 0 then ctx
  else if ctx.buffered = "" then begin
    (* Block-aligned context: compress straight from the word array, 16
       words per block, identical to absorbing their big-endian bytes. *)
    let h = ref ctx.h and blocks = ref ctx.blocks in
    let p = ref pos and left = ref len in
    while !left >= 16 do
      h := compress_words !h ws !p;
      incr blocks;
      p := !p + 16;
      left := !left - 16
    done;
    let ctx' =
      { h = !h; buffered = ""; length = ctx.length + (4 * (len - !left)); blocks = !blocks }
    in
    if !left = 0 then ctx' else absorb ctx' (bytes_of_words ws !p !left)
  end
  else absorb ctx (bytes_of_words ws pos len)

let absorb_word ctx w =
  let bl = String.length ctx.buffered in
  if bl + 4 < 64 then begin
    (* Stays a partial block: extend the buffer in one allocation. *)
    let v = Word.to_int w in
    let b = Bytes.create (bl + 4) in
    Bytes.blit_string ctx.buffered 0 b 0 bl;
    Bytes.unsafe_set b bl (Char.unsafe_chr ((v lsr 24) land 0xFF));
    Bytes.unsafe_set b (bl + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set b (bl + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set b (bl + 3) (Char.unsafe_chr (v land 0xFF));
    { ctx with buffered = Bytes.unsafe_to_string b; length = ctx.length + 4 }
  end
  else absorb ctx (Word.to_bytes_be w)

let absorb_block ctx block =
  if String.length block <> 64 then
    invalid_arg "Sha256.absorb_block: block must be 64 bytes";
  if ctx.buffered <> "" then
    invalid_arg "Sha256.absorb_block: context holds a partial block";
  absorb ctx block

let finalize ctx =
  let len_bits = ctx.length * 8 in
  let pad_len =
    let rem = (ctx.length + 1 + 8) mod 64 in
    if rem = 0 then 1 + 8 else 1 + 8 + (64 - rem)
  in
  let padding = Bytes.make pad_len '\x00' in
  Bytes.set padding 0 '\x80';
  for i = 0 to 7 do
    Bytes.set padding
      (pad_len - 1 - i)
      (Char.chr ((len_bits lsr (8 * i)) land 0xFF))
  done;
  let final = absorb ctx (Bytes.unsafe_to_string padding) in
  assert (final.buffered = "");
  let out = Bytes.create 32 in
  Array.iteri
    (fun i v ->
      Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
      Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
      Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
      Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF)))
    final.h;
  Bytes.unsafe_to_string out

let digest s = finalize (absorb init s)

let digest_words ws =
  let buf = Buffer.create (4 * List.length ws) in
  List.iter (fun w -> Buffer.add_string buf (Word.to_bytes_be w)) ws;
  digest (Buffer.contents buf)

let equal_ctx a b =
  a == b || (a.h = b.h && a.buffered = b.buffered && a.length = b.length)

let to_hex d =
  String.init (2 * String.length d) (fun i ->
      let c = Char.code d.[i lsr 1] in
      "0123456789abcdef".[if i land 1 = 0 then c lsr 4 else c land 0xf])

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Sha256.of_hex: odd length";
  String.init (n / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let digest_words_of d =
  if String.length d <> 32 then invalid_arg "Sha256.digest_words_of: need 32 bytes";
  List.init 8 (fun i -> Word.of_bytes_be d (4 * i))

let digest_of_words ws =
  if List.length ws <> 8 then invalid_arg "Sha256.digest_of_words: need 8 words";
  let buf = Buffer.create 32 in
  List.iter (fun w -> Buffer.add_string buf (Word.to_bytes_be w)) ws;
  Buffer.contents buf
