(** The abstraction function of the refinement: concrete monitor state
    to abstract spec state.

    [abs] reads the implementation's PageDB and decodes its live page
    tables out of machine memory (first-level slots to second-level
    page numbers, second-level slots to abstract PTEs), collapses each
    measurement to its current digest, and forgets everything the spec
    treats as secret: page contents, saved register contexts, cycle
    counts, the RNG. The refinement theorem the differential checker
    tests is [abs (impl_step s c) = spec_step (abs s) c]. *)

module Monitor = Komodo_core.Monitor

val plat : npages:int -> Astate.plat
(** The spec's platform-constants record for this build's layout
    (Figure 4), usable without a booted monitor (trace replay). *)

type cache
(** Memo of the previous abstraction, page by page: for each page the
    PageDB entry it was abstracted from and, for a first- or
    second-level table page, the memory chunk backing it. [abs ~cache]
    re-abstracts only the pages whose entry or chunk is no longer
    physically the same, and returns its previous result itself when
    none is. Identity validates the memo: [Pagedb.set] replaces one
    immutable entry at a time, a published chunk is never mutated, and
    a page's abstraction depends on nothing else but the page count; a
    cache that meets a different page count starts afresh. So a cache
    shared across runs and worlds stays sound, but it pays off only
    when consecutive calls see states a few pages apart, as a run
    stepping its ops in order does. *)

val cache : unit -> cache
val abs : ?cache:cache -> Monitor.t -> Astate.t
