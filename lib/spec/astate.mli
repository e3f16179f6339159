(** Abstract monitor state: the spec side of the refinement.

    This is the PageDB-level functional state of the paper's Dafny
    specification (§5.2, §6): page types, address-space lifecycle
    states, abstract page tables, and measurement transcripts. It is
    deliberately independent of [lib/machine] — everything is a plain
    [int] (page numbers, physical addresses, virtual addresses modulo
    2^32) and page-table pages are finite maps rather than memory
    words. Enclave-private register state and page contents are *not*
    modelled: they are the secrets the spec treats as opaque, exactly
    as the paper's declassification boundary does.

    The only primitive shared with the implementation is SHA-256
    ({!Komodo_crypto.Sha256}); the measurement *encoding* (record
    framing, tags, padding) is restated here independently. *)

module Sha256 = Komodo_crypto.Sha256

(** Boot-time platform facts the spec transitions consult. All plain
    integers (physical addresses / byte counts). *)
type plat = {
  npages : int;
  page_size : int;
  secure_base : int;  (** physical base of secure page 0 *)
  insecure_base : int;
  insecure_limit : int;  (** OS RAM: [insecure_base, insecure_limit) *)
  monitor_base : int;
  monitor_size : int;
  va_limit : int;  (** exclusive enclave VA bound (1 GB) *)
}

type aperms = { w : bool; x : bool }

val pp_aperms : aperms -> string

(** Abstract second-level page-table entry: a secure page of the same
    enclave, or an insecure physical frame. *)
type apte = Psec of int * aperms | Pins of int * aperms

(** Measurement transcript. [Mctx] is an in-progress transcript kept as
    an incrementally-updated hash context; [Mdone] a finalised digest;
    [Mopaque] an unknown transcript (trace replay cannot observe staged
    page contents) which compares equal to anything. *)
type ameasure = Mctx of Sha256.ctx | Mdone of Sha256.digest | Mopaque

type aspace_state = Sinit | Sfinal | Sstopped

val state_name : aspace_state -> string

type aspace = {
  l1pt : int;
  refcount : int;  (** owned pages, excluding the addrspace page *)
  st : aspace_state;
  meas : ameasure;
}

type athread = {
  tasp : int;
  entry : int;
  entered : bool;
  has_ctx : bool;
  dispatcher : int option;
  has_fault_ctx : bool;
}

type apage =
  | Afree
  | Aaddrspace of aspace
  | Athread of athread
  | Al1 of { asp : int; slots : int Map.Make(Int).t }
      (** first-level slot -> second-level table page number *)
  | Al2 of { asp : int; slots : apte Map.Make(Int).t }
  | Adata of { asp : int }
  | Aspare of { asp : int }

type t = { plat : plat; pages : apage Map.Make(Int).t }

val boot : plat -> t
(** All pages free. *)

val get : t -> int -> apage
(** @raise Invalid_argument on an out-of-range page number. *)

val set : t -> int -> apage -> t

val owner_of : apage -> int option
(** Owning address space ([None] for free and addrspace pages). *)

val owned : t -> int -> int list
(** Pages owned by address space [asp], excluding its own page. *)

(* Platform / layout predicates (restated from Figure 4). *)

val page_pa : plat -> int -> int
val page_of_pa : plat -> int -> int option
val in_monitor_image : plat -> int -> bool
val in_secure_region : plat -> int -> bool

val valid_insecure : plat -> int -> bool
(** OS RAM minus monitor image minus secure region — the §9.1 check. *)

(* Measurement transcript (encoding restated from §4/§7.2: records are
   16-word big-endian blocks, tag then parameters, zero-padded; data
   pages absorb their 4096 contents bytes as 64 further blocks). *)

val meas_initial : ameasure
val meas_add_thread : ameasure -> entry:int -> ameasure

val meas_add_data : ameasure -> mapping_word:int -> contents:string option -> ameasure
(** [contents = None] (unobservable initial contents) degrades the
    transcript to [Mopaque]. *)

val meas_finalise : ameasure -> ameasure
val meas_digest : ameasure -> Sha256.digest option
val equal_meas : ameasure -> ameasure -> bool
(** Equal digests; two open transcripts with equal contexts are equal
    without finalising either. [Mopaque] equals anything. *)

(* Comparison and rendering. *)

val type_name : apage -> string
(** The page type as the monitor's telemetry names it ("free",
    "addrspace", "thread", "l1ptable", "l2ptable", "datapage",
    "sparepage"). *)

val pp_page : apage -> string

val diff : t -> t -> int list
(** Pages on which the two states disagree, in page order, with [-1]
    first when the page counts differ. Physically equal states and
    pages are equal without a look inside, and nothing is rendered. *)

val pp_at : t -> int -> string
(** A page of {!diff}'s result as the reports print it: {!pp_page}, or
    for [-1] the page count (["N pages"]). *)

val equal : t -> t -> bool
