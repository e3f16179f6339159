(* Canonical Astate serialisation + FNV-1a hashing for explore dedup. *)

module Sha256 = Komodo_crypto.Sha256
module Imap = Map.Make (Int)
open Astate

(* One page, canonically. Every variant gets a distinct leading tag, so
   no two page values can serialise alike; map bindings are visited in
   ascending slot order, and the measurement is its digest — exactly
   the granularity [Astate.equal] compares at. A key is made for every
   successor the search finds, so it is written with Buffer calls, not
   Printf; the comment on each case spells out the format it writes. *)
let key t =
  let b = Buffer.create 256 in
  let c = Buffer.add_char b and s = Buffer.add_string b in
  let d n = s (string_of_int n) and bit v = c (if v then '1' else '0') in
  let page = function
    | Afree -> c 'f'
    | Aaddrspace a ->
        let digest =
          match meas_digest a.meas with
          | Some dg -> Sha256.to_hex dg
          | None ->
              invalid_arg
                "Ahash.key: opaque measurement transcript has no canonical form"
        in
        let st = match a.st with Sinit -> 0 | Sfinal -> 1 | Sstopped -> 2 in
        (* A%d,%d,%d,%s *)
        c 'A'; d a.l1pt; c ','; d a.refcount; c ','; d st; c ','; s digest
    | Athread th ->
        (* T%d,%d,%d%d%d,%d *)
        c 'T'; d th.tasp; c ','; d th.entry; c ',';
        bit th.entered; bit th.has_ctx; bit th.has_fault_ctx;
        c ','; d (match th.dispatcher with None -> -1 | Some dp -> dp)
    | Al1 { asp; slots } ->
        (* 1%d[ then %d>%d; per slot, then ] *)
        c '1'; d asp; c '[';
        Imap.iter (fun i pg -> d i; c '>'; d pg; c ';') slots;
        c ']'
    | Al2 { asp; slots } ->
        (* 2%d[ then %d>s%d%d%d; or %d>i%d%d%d; per slot, then ] *)
        c '2'; d asp; c '[';
        Imap.iter
          (fun i pte ->
            let tag, n, p =
              match pte with Psec (pg, p) -> ('s', pg, p) | Pins (pa, p) -> ('i', pa, p)
            in
            d i; c '>'; c tag; d n; bit p.w; bit p.x; c ';')
          slots;
        c ']'
    | Adata { asp } -> c 'D'; d asp
    | Aspare { asp } -> c 'S'; d asp
  in
  c 'P'; d t.plat.npages;
  for n = 0 to t.plat.npages - 1 do
    c '|';
    page (get t n)
  done;
  Buffer.contents b

(* FNV-1a, 64-bit. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_string s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let hash t = hash_string (key t)
let hex h = Printf.sprintf "%016Lx" h
