(** Physical memory: page-granular, copy-on-write.

    Matches the paper's memory model (§5.1): only aligned word accesses
    exist, so distinct addresses are independent; unmapped addresses
    read as zero. The representation is an immutable map from page
    number to 1024-word chunks: [store] copies the affected chunk,
    whole-page operations swap chunks, and an all-zero chunk is never
    stored (canonical form), so states that read equal are structurally
    equal and whole-machine snapshots and comparisons (as the
    noninterference harness performs constantly) stay cheap.

    The owner rule: a published chunk is never mutated, and an owned
    chunk is mutated only until release. A chunk created by
    [store_as o] is owned by [o], and [o]'s later stores write it in
    place until [release o]; every other chunk is published, and a
    chunk bound at a second page or in a second memory is published
    then. So a run of stores to one page through one owner copies the
    page once. While [o] is live, only the latest memory its stores
    returned is meaningful: read it, store to it, and drop the ones
    before it. A memory taken after [release o] keeps its contents for
    good, as does every memory [o]'s stores did not produce. *)

type t

val empty : t

val page_words : int
(** Words per page (1024 — a 4 kB page of 32-bit words). Mirrors
    [Ptable.words_per_page]; kept separately because [Ptable] depends
    on this module. *)

exception Unaligned of Word.t
(** Raised by any access to a non-word-aligned address. *)

val load : t -> Word.t -> Word.t
val store : t -> Word.t -> Word.t -> t
(** Storing zero erases the word, so states that read equal are
    structurally equal. [store] is [store_as] with no owner: it never
    writes a chunk in place. *)

type owner
(** Permission to write the chunks one's own stores created, in place,
    until {!release}. *)

val owner : unit -> owner
(** A fresh, live owner. *)

val store_as : owner -> t -> Word.t -> Word.t -> t
(** [store_as o t a v] reads as [store t a v]. It writes in place when
    the page's chunk was created by [o] and [o] is live; otherwise it
    copies the chunk, and the copy is [o]'s. *)

val release : owner -> unit
(** Publish every chunk the owner created: none of them is written
    again. Storing through a released owner copies, like [store]. *)

val load_range : t -> Word.t -> int -> Word.t list
(** [load_range t a n] reads [n] consecutive words from [a]. *)

val load_range_array : t -> Word.t -> int -> Word.t array
(** As [load_range], but returning a fresh array — preferred for
    callers that index or iterate (page-table walks, image decode). *)

val store_range : t -> Word.t -> Word.t list -> t
val store_range_array : t -> Word.t -> Word.t array -> t
(** [store_range_array t a ws] stores all of [ws] from [a] with one
    chunk copy per touched page (page-aligned full pages don't copy the
    old chunk at all). The caller keeps ownership of [ws]. *)

val zero_range : t -> Word.t -> int -> t
(** Zero [n] words from the given address — page scrubbing. Whole-page
    spans drop the chunk outright. *)

val copy_range : t -> src:Word.t -> dst:Word.t -> int -> t
(** Word-by-word forward copy semantics; page-aligned whole-page copies
    share the source chunk physically. *)

val to_bytes_be : t -> Word.t -> int -> string
(** Big-endian serialisation of [n] words — the form fed to the
    measurement hash. Single pass, one allocation. *)

val of_bytes_be : t -> Word.t -> string -> t
(** @raise Invalid_argument if the string length is not a multiple
    of 4. *)

val absorb_range :
  t -> Word.t -> int -> init:'a -> f:('a -> Word.t array -> int -> int -> 'a) -> 'a
(** [absorb_range t a n ~init ~f] folds [f acc words first count] over
    the page segments covering [n] words from [a], exposing each page's
    word array directly (a shared all-zero array for absent pages) so
    hashing needs no intermediate strings. [f] must not mutate the
    array or retain it beyond the call. *)

val iter_nonzero : t -> Word.t -> int -> (int -> Word.t -> unit) -> unit
(** [iter_nonzero t a n f] calls [f k w] on each nonzero word [w] of the
    [n] words from [a], where [k] counts words from [a], in address
    order. Each page is read in place, and its walk stops at the page's
    last nonzero word, so a sparse page costs what it stores. *)

val equal_range : t -> t -> Word.t -> int -> bool
(** Do two memories agree on the [n] words from the given base?
    (Page-level observational equivalence.) Physically equal memories
    and physically shared chunks compare in O(1). *)

val equal : t -> t -> bool

val restrict : t -> f:(int -> bool) -> t
(** Keep only words whose address satisfies [f] — e.g. "insecure memory
    only" when building the adversary's view. Pages left intact keep
    their chunk physically. *)

val fold : (int -> Word.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over explicitly-stored (nonzero) words in address order. *)

val cardinal : t -> int
(** Number of explicitly-stored words (debugging aid). *)

val pp : Format.formatter -> t -> unit

val diff_pages : t -> t -> int list
(** Page numbers on which the two memories differ, ascending. Pages
    whose chunks are physically shared are skipped without comparison,
    so diffing a state against the snapshot it was derived from costs
    O(pages written). Page numbers are physical-address page indices
    ([pa lsr 12]), not PageDB page numbers. *)

val blit_page : src:t -> t -> int -> t
(** [blit_page ~src dst pg] rebinds (physical) page [pg] of [dst] to
    [src]'s chunk for that page, sharing it physically — the write-set
    install primitive of the multi-core stepper. *)

(** {2 Page identity}

    Chunk identity for content-keyed caches: if [same_page] holds for
    the pages backing an address at two points in time, the page's
    contents are unchanged (a published chunk is never mutated; take
    pages only from memories no live owner is still storing to). The
    converse is false — contents may match across distinct chunks — so
    identity may only be used to {e validate} cached work, never to
    distinguish states. *)

type page

val page_at : t -> Word.t -> page option
(** The chunk backing the page containing the given address; [None] for
    the canonical all-zero page. *)

val same_page : page option -> page option -> bool
(** Physical identity of chunks ([None] = the zero page). *)
