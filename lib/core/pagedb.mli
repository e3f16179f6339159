(** The PageDB: Komodo's analogue of the SGX enclave page cache map.

    For every secure page it stores the allocation state and, if
    allocated, the page's type and owning address space (§4, §5.2). The
    abstract representation deliberately omits page *contents* — those
    live in machine memory — mirroring the paper's split between the
    abstract PageDB and the concrete state related by refinement.

    A valid PageDB satisfies internal-consistency invariants (reference
    counts correct, internal references well-typed and intra-enclave,
    page-table leaves pointing only at same-enclave data pages or
    insecure memory); {!check} verifies them all and is exercised after
    every monitor call by the test suite, as the paper proves of every
    SMC and SVC. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Platform = Komodo_tz.Platform

type pagenr = int

type addrspace_state = Init | Final | Stopped

val equal_addrspace_state : addrspace_state -> addrspace_state -> bool
val pp_addrspace_state : Format.formatter -> addrspace_state -> unit
val show_addrspace_state : addrspace_state -> string

(** Saved user context of a suspended thread: the 15 user-visible
    registers, the code image + flat index forming the PC, and the
    saved CPSR. *)
type thread_ctx = {
  regs : Word.t list;
  image : Word.t;  (** code-image base VA the PC indexes into *)
  pc : Word.t;
  cpsr : Word.t;
}

val equal_thread_ctx : thread_ctx -> thread_ctx -> bool

type addrspace_info = {
  l1pt : pagenr;
  refcount : int;  (** pages owned by this space, excluding itself *)
  state : addrspace_state;
  measurement : Measure.t;
}

type thread_info = {
  addrspace : pagenr;
  entry_point : Word.t;
  entered : bool;  (** suspended mid-execution; context saved *)
  ctx : thread_ctx option;
  dispatcher : Word.t option;
      (** LibOS-style fault-handler entry registered by the enclave
          (dispatcher interface, §9.2); [None] = exit with Fault *)
  fault_ctx : thread_ctx option;
      (** context parked during a dispatcher upcall; restored by
          ResumeFaulted *)
}

type entry =
  | Free
  | Addrspace of addrspace_info
  | Thread of thread_info
  | L1PTable of { addrspace : pagenr }
  | L2PTable of { addrspace : pagenr }
  | DataPage of { addrspace : pagenr }
  | SparePage of { addrspace : pagenr }

val type_name : entry -> string
val equal_entry : entry -> entry -> bool

val owner : entry -> pagenr option
(** Owning address space of an allocated page ([None] for [Free] and
    for address-space pages, which own themselves). *)

type t

val make : npages:int -> t
(** All pages free. *)

val npages : t -> int
val valid_pagenr : t -> pagenr -> bool

val get : t -> pagenr -> entry
(** @raise Invalid_argument on an out-of-range page number. *)

val set : t -> pagenr -> entry -> t
val is_free : t -> pagenr -> bool
val addrspace_of : t -> pagenr -> (pagenr * addrspace_info) option

val owned_pages : t -> pagenr -> pagenr list
(** Pages owned by an address space (excluding its own page). *)

val free_count : t -> int
val all_addrspaces : t -> (pagenr * addrspace_info) list

val diff_types : t -> t -> (pagenr * string * string) list
(** Pages whose type differs between the two PageDBs, as
    [(page, old_type_name, new_type_name)] in page order — the raw
    material of telemetry's page-transition events. *)

val bump_refcount : t -> pagenr -> int -> t
(** @raise Invalid_argument if the page is not an address space. *)

val alloc : t -> pagenr -> entry -> t
(** Allocate a free page, maintaining the owner's refcount. *)

val release : t -> pagenr -> t
(** Free a page, maintaining the owner's refcount. *)

type violation = { page : pagenr; message : string }

val pp_violation : Format.formatter -> violation -> unit

val check : Platform.t -> Memory.t -> t -> violation list
(** Every invariant violation (the concrete memory is needed to inspect
    page-table contents); empty means well-formed. *)

val wf : Platform.t -> Memory.t -> t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
