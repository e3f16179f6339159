(** Physical memory: page-granular, copy-on-write.

    Matching the paper's memory model (§5.1): reasoning (and here,
    execution) only ever touches aligned words, so accesses to distinct
    addresses are independent; unmapped addresses read as zero, modelling
    RAM with unconstrained-but-fixed initial contents.

    The monitor's semantics are page-granular — the PageDB tracks 4 kB
    pages, MapSecure hashes whole pages, Remove scrubs them — so the
    representation is too: an immutable map from page number to a
    1024-word chunk. [store] copies the affected chunk
    (copy-on-write); everything else is persistent, so whole-machine
    snapshots are O(1) and the noninterference harness can compare
    states cheaply.

    Owners (see the interface): a published chunk is never mutated, and
    an owned chunk is mutated only until release, so a run of stores to
    one page through one owner (the interpreter's burst) copies the page
    once, not once per store.

    Canonical form: an all-zero chunk is never stored (each chunk
    carries its nonzero-word count so stores that zero the last live
    word drop the binding in O(1) beyond the copy). Two memories that
    read equal therefore have equal key sets and [equal] stays both
    semantic and structural, exactly as with the old per-word map.
    Published chunks are never mutated, so whole-page copies share
    chunks physically and [equal]/[equal_range] short-circuit on
    physical equality; sharing a chunk publishes it. *)

module Page_map = Map.Make (Int)

(** Words per 4 kB page. Kept here (not in [Ptable], which depends on
    this module) and asserted equal to [Ptable.words_per_page] by the
    machine test suite. *)
let page_words = 1024

let page_shift = 12
let byte_mask = 0xFFFF_FFFF

(* Who may write a chunk in place: its creator, while [live]. *)
type owner = { mutable live : bool }

(* A page's contents, its nonzero-word count and its owner. [data] is
   written only by [store_as by] while [by.live]; once [by] is released
   or the chunk is shared ([publish]), it is never written again. *)
type chunk = { data : Word.t array; mutable nz : int; mutable by : owner }

type t = chunk Page_map.t

(** Chunk identity, for callers that cache work keyed on page contents
    (e.g. the decoded-program cache in [Exec]): physical equality of
    published chunks implies equal contents. *)
type page = chunk

let empty : t = Page_map.empty

(* The owner of every chunk no live owner created. Never live. *)
let nobody = { live = false }

let owner () = { live = true }
let release o = o.live <- false

(* Give up in-place writes to [c] before it is bound at a second page or
   in a second memory, where an owner's store would show through. *)
let publish c =
  if c.by.live then c.by <- nobody;
  c

exception Unaligned of Word.t

let check_aligned a = if not (Word.is_aligned a) then raise (Unaligned a)

(* The canonical all-zero page, handed out read-only wherever an absent
   page must be observed wordwise. Never stored in a map, never written. *)
let zero_data : Word.t array = Array.make page_words Word.zero

let page_of ai = ai lsr page_shift
let word_index ai = (ai lsr 2) land (page_words - 1)

let load t a =
  check_aligned a;
  let ai = Word.to_int a in
  match Page_map.find_opt (page_of ai) t with
  | None -> Word.zero
  | Some c -> c.data.(word_index ai)

let store_as o t a v =
  check_aligned a;
  let ai = Word.to_int a in
  let pg = page_of ai and i = word_index ai in
  match Page_map.find_opt pg t with
  | None ->
      if Word.equal v Word.zero then t
      else begin
        let data = Array.make page_words Word.zero in
        data.(i) <- v;
        Page_map.add pg { data; nz = 1; by = o } t
      end
  | Some c ->
      let old = c.data.(i) in
      if Word.equal old v then t
      else
        let nz =
          c.nz
          + (if Word.equal v Word.zero then 0 else 1)
          - if Word.equal old Word.zero then 0 else 1
        in
        if nz = 0 then Page_map.remove pg t
        else if c.by == o && o.live then begin
          c.data.(i) <- v;
          c.nz <- nz;
          t
        end
        else begin
          let data = Array.copy c.data in
          data.(i) <- v;
          Page_map.add pg { data; nz; by = o } t
        end

let store t a v = store_as nobody t a v

(* Walk the [n] words from [a] as (page, first word index, word count)
   segments, in address order. Address arithmetic wraps at 2^32 exactly
   as repeated [Word.add] did. Callers check [n > 0]. *)
let iter_segments a n f =
  check_aligned a;
  let addr = ref (Word.to_int a) and left = ref n in
  while !left > 0 do
    let ai = !addr in
    let i = word_index ai in
    let span = min (page_words - i) !left in
    f (page_of ai) i span;
    addr := (ai + (4 * span)) land byte_mask;
    left := !left - span
  done

let count_nz data =
  let n = ref 0 in
  Array.iter (fun w -> if not (Word.equal w Word.zero) then incr n) data;
  !n

(* Rebind page [pg] to the freshly built [data] (ownership transferred),
   keeping the no-all-zero-chunk canonical form. *)
let put_page t pg data =
  let nz = count_nz data in
  if nz = 0 then Page_map.remove pg t else Page_map.add pg { data; nz; by = nobody } t

(* A fresh mutable copy of page [pg]'s contents. *)
let page_copy t pg =
  match Page_map.find_opt pg t with
  | None -> Array.make page_words Word.zero
  | Some c -> Array.copy c.data

let load_range_array t a n =
  if n <= 0 then [||]
  else begin
    let out = Array.make n Word.zero in
    let pos = ref 0 in
    iter_segments a n (fun pg i span ->
        (match Page_map.find_opt pg t with
        | None -> ()
        | Some c -> Array.blit c.data i out !pos span);
        pos := !pos + span);
    out
  end

(** [load_range t a n] reads [n] consecutive words starting at [a]. *)
let load_range t a n = Array.to_list (load_range_array t a n)

let store_range_array t a ws =
  let n = Array.length ws in
  if n = 0 then t
  else begin
    let m = ref t and pos = ref 0 in
    iter_segments a n (fun pg i span ->
        let data =
          if i = 0 && span = page_words then Array.sub ws !pos page_words
          else begin
            let d = page_copy !m pg in
            Array.blit ws !pos d i span;
            d
          end
        in
        m := put_page !m pg data;
        pos := !pos + span);
    !m
  end

let store_range t a ws = store_range_array t a (Array.of_list ws)

(** Zero [n] words from [a] — e.g. scrubbing a page before handing it to
    an enclave ([MapData] zero-fills, §4). Whole-page spans just drop
    the chunk. *)
let zero_range t a n =
  if n <= 0 then t
  else begin
    let m = ref t in
    iter_segments a n (fun pg i span ->
        if i = 0 && span = page_words then m := Page_map.remove pg !m
        else
          match Page_map.find_opt pg !m with
          | None -> ()
          | Some c ->
              let live = ref 0 in
              for j = i to i + span - 1 do
                if not (Word.equal c.data.(j) Word.zero) then incr live
              done;
              if !live > 0 then
                if !live = c.nz then m := Page_map.remove pg !m
                else begin
                  let d = Array.copy c.data in
                  Array.fill d i span Word.zero;
                  m := Page_map.add pg { data = d; nz = c.nz - !live; by = nobody } !m
                end);
    !m
  end

let copy_range t ~src ~dst n =
  if n <= 0 then t
  else if
    Word.to_int src land (page_words * 4 - 1) = 0
    && Word.to_int dst land (page_words * 4 - 1) = 0
    && n mod page_words = 0
  then begin
    (* Whole aligned pages: rebind the destination to the source chunk —
       physical sharing, so a later [equal_range] of the two pages
       short-circuits. Pages are copied in ascending order reading from
       the updated memory, which coincides with the old word-by-word
       forward copy (within one iteration source and destination pages
       are distinct unless identical). *)
    let m = ref t in
    let pg_mask = byte_mask lsr page_shift in
    for k = 0 to (n / page_words) - 1 do
      let spg = (page_of (Word.to_int src) + k) land pg_mask
      and dpg = (page_of (Word.to_int dst) + k) land pg_mask in
      (m :=
         match Page_map.find_opt spg !m with
         | None -> Page_map.remove dpg !m
         | Some c -> Page_map.add dpg (publish c) !m)
    done;
    !m
  end
  else
    (* Rare unaligned/partial copies keep the exact word-by-word forward
       semantics (overlapping ranges propagate). *)
    let rec go t src dst i =
      if i = n then t
      else
        go
          (store t dst (load t src))
          (Word.add src (Word.of_int 4))
          (Word.add dst (Word.of_int 4))
          (i + 1)
    in
    go t src dst 0

(** Big-endian byte serialisation of [n] words from [a]; used to feed
    page contents into the measurement hash. Single pass, one
    allocation. *)
let to_bytes_be t a n =
  if n <= 0 then ""
  else begin
    let b = Bytes.make (4 * n) '\000' in
    let pos = ref 0 in
    iter_segments a n (fun pg i span ->
        (match Page_map.find_opt pg t with
        | None -> ()
        | Some c ->
            for j = 0 to span - 1 do
              let v = Word.to_int c.data.(i + j) in
              let off = 4 * (!pos + j) in
              Bytes.unsafe_set b off (Char.unsafe_chr ((v lsr 24) land 0xFF));
              Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
              Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
              Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (v land 0xFF))
            done);
        pos := !pos + span);
    Bytes.unsafe_to_string b
  end

let of_bytes_be t a s =
  if String.length s mod 4 <> 0 then invalid_arg "Memory.of_bytes_be: ragged length";
  let n = String.length s / 4 in
  if n = 0 then t
  else begin
    let m = ref t and pos = ref 0 in
    iter_segments a n (fun pg i span ->
        let d =
          if i = 0 && span = page_words then Array.make page_words Word.zero
          else page_copy !m pg
        in
        for j = 0 to span - 1 do
          d.(i + j) <- Word.of_bytes_be s (4 * (!pos + j))
        done;
        m := put_page !m pg d;
        pos := !pos + span);
    !m
  end

(** Feed [n] words from [a] into an accumulator one page segment at a
    time: [f acc words first count] sees the chunk's array directly
    (the canonical zero page for absent pages) — no intermediate
    strings. The array must not be mutated. *)
let absorb_range t a n ~init ~f =
  if n <= 0 then init
  else begin
    let acc = ref init in
    iter_segments a n (fun pg i span ->
        let data =
          match Page_map.find_opt pg t with
          | None -> zero_data
          | Some c -> c.data
        in
        acc := f !acc data i span);
    !acc
  end

(** [equal_range a b base n]: do [a] and [b] agree on the [n] words from
    [base]? Used by page-level observational equivalence. Chunks shared
    physically (snapshots, whole-page copies) compare in O(1). *)
let equal_range ma mb base n =
  if n <= 0 then true
  else begin
    let ok = ref true in
    (try
       iter_segments base n (fun pg i span ->
           match (Page_map.find_opt pg ma, Page_map.find_opt pg mb) with
           | None, None -> ()
           | Some ca, Some cb when ca == cb || ca.data == cb.data -> ()
           | oa, ob ->
               let da = match oa with Some c -> c.data | None -> zero_data
               and db = match ob with Some c -> c.data | None -> zero_data in
               for j = i to i + span - 1 do
                 if not (Word.equal da.(j) db.(j)) then begin
                   ok := false;
                   raise Exit
                 end
               done)
     with Exit -> ());
    !ok
  end

let chunk_equal c1 c2 =
  c1 == c2 || c1.data == c2.data
  || c1.nz = c2.nz
     &&
     let rec go i =
       i >= page_words || (Word.equal c1.data.(i) c2.data.(i) && go (i + 1))
     in
     go 0

(* Canonical form (no all-zero chunk) makes semantic equality structural:
   equal memories have equal page sets. *)
let equal = Page_map.equal chunk_equal

(** Keep only the words whose address satisfies [f] (e.g. "insecure
    memory only" when comparing adversary-visible state). Unmapped
    words read as zero, so explicit zero stores never survive a store
    round-trip and restriction is well-defined on the quotient. Pages
    whose live words all survive keep their chunk physically. *)
let restrict t ~f =
  Page_map.filter_map
    (fun pg c ->
      let base = pg lsl page_shift in
      let dropped = ref 0 in
      Array.iteri
        (fun i w ->
          if not (Word.equal w Word.zero) && not (f (base lor (4 * i))) then
            incr dropped)
        c.data;
      if !dropped = 0 then Some (publish c)
      else if !dropped = c.nz then None
      else begin
        let d = Array.copy c.data in
        Array.iteri
          (fun i w ->
            if not (Word.equal w Word.zero) && not (f (base lor (4 * i))) then
              d.(i) <- Word.zero)
          c.data;
        Some { data = d; nz = c.nz - !dropped; by = nobody }
      end)
    t

(** Fold over explicitly-stored (nonzero) words in address order. *)
let fold f t acc =
  Page_map.fold
    (fun pg c acc ->
      let base = pg lsl page_shift in
      let acc = ref acc in
      Array.iteri
        (fun i w ->
          if not (Word.equal w Word.zero) then acc := f (base lor (4 * i)) w !acc)
        c.data;
      !acc)
    t acc

(** Number of explicitly-stored (nonzero) words; a debugging aid. *)
let cardinal t = Page_map.fold (fun _ c n -> n + c.nz) t 0

let pp fmt t =
  Page_map.iter
    (fun pg c ->
      Array.iteri
        (fun i w ->
          if not (Word.equal w Word.zero) then
            Format.fprintf fmt "[%a]=%a@ " Word.pp
              (Word.of_int ((pg lsl page_shift) lor (4 * i)))
              Word.pp w)
        c.data)
    t

(** Page numbers on which two memories may differ, ascending. Physically
    shared chunks are skipped in O(1) without comparing contents, so
    diffing a state against a snapshot it was derived from costs O(pages
    actually written). The result can overapproximate (distinct chunks
    with equal contents are reported only when a word differs — the
    word-level comparison below keeps it exact). *)
let diff_pages ma mb =
  let out = ref [] in
  ignore
    (Page_map.merge
       (fun pg oa ob ->
         (match (oa, ob) with
         | None, None -> ()
         | Some ca, Some cb when chunk_equal ca cb -> ()
         | _ -> out := pg :: !out);
         None)
       ma mb);
  List.rev !out

(** [blit_page ~src dst pg] rebinds page [pg] of [dst] to [src]'s chunk
    for that page — O(log pages), sharing the chunk physically. The
    write-set install primitive: commit a validated page image into the
    current global memory without touching any other page. *)
let blit_page ~src dst pg =
  match Page_map.find_opt pg src with
  | None -> Page_map.remove pg dst
  | Some c -> Page_map.add pg (publish c) dst

let page_at t a = Page_map.find_opt (page_of (Word.to_int a)) t

let same_page p q =
  match (p, q) with
  | None, None -> true
  | Some a, Some b -> a == b || a.data == b.data
  | _ -> false
