(** ARM short-descriptor page tables, as used by Komodo enclaves.

    Enclave address spaces cover only the low 1 GB of virtual memory:
    the enclave table is loaded into TTBR0 (TTBCR-split) while TTBR1
    holds the monitor's static table (Figure 4). As in the paper
    (§5.1), exactly one format is modelled — 4 kB small pages in the
    short-descriptor format — and nothing is said about user execution
    under any other encoding, which forces implementations to build
    conforming tables.

    Model layout (mirroring Komodo's grouping of four ARM coarse tables
    per second-level page): a first-level table has 256 entries of 4 MB
    each; a second-level table page has 1024 entries of 4 kB each; VA
    bits [29:22] index the first level, [21:12] the second, [11:0] the
    page offset. *)

val page_size : int
(** 4096 bytes. *)

val words_per_page : int
(** 1024 words. *)

val l1_entries : int
(** 256 first-level slots (4 MB each). *)

val l2_entries : int
(** 1024 second-level entries (4 kB each). *)

val va_limit : Word.t
(** Exclusive upper bound of enclave virtual addresses: 1 GB. *)

val page_aligned : Word.t -> bool
val page_base : Word.t -> Word.t
(** Round down to a page boundary. *)

type perms = { w : bool; x : bool }
(** Read permission is implicit in presence. *)

val equal_perms : perms -> perms -> bool
val pp_perms : Format.formatter -> perms -> unit
val show_perms : perms -> string

val r_only : perms
val rw : perms
val rx : perms
val rwx : perms

val l1_index : Word.t -> int
val l2_index : Word.t -> int
val page_offset : Word.t -> Word.t

val make_l1e : l2pt_base:Word.t -> Word.t
(** First-level entry pointing at a second-level table page.
    @raise Invalid_argument on an unaligned base. *)

val decode_l1e : Word.t -> Word.t option
(** The second-level table base, if the entry is present. *)

val make_l2e : base:Word.t -> ns:bool -> perms -> Word.t
(** Second-level (small page) entry; [ns] marks insecure/shared frames.
    @raise Invalid_argument on an unaligned base. *)

val decode_l2e : Word.t -> (Word.t * bool * perms) option
(** [(frame base, ns, perms)] if present. *)

type frame = { pa : Word.t; ns : bool; perms : perms }
(** Result of a successful translation. *)

val translate : Memory.t -> ttbr:Word.t -> Word.t -> frame option
(** Walk the table rooted at [ttbr] for a virtual address; [None]
    models a translation fault. *)

val iter_l1 : Memory.t -> Word.t -> (int -> Word.t -> unit) -> unit
(** [iter_l1 mem base f] calls [f slot l2pt_base] on each present entry
    of the first-level table at [base], in slot order. The table is
    read in place: its page is not copied, and the walk ends at the
    page's last nonzero word. *)

val iter_l2 : Memory.t -> Word.t -> (int -> Word.t -> bool -> perms -> unit) -> unit
(** [iter_l2 mem base f] calls [f slot frame_base ns perms] on each
    present entry of the second-level table at [base], in slot order,
    reading the table in place as [iter_l1] does. *)

val writable_pages : Memory.t -> ttbr:Word.t -> (Word.t * Word.t * bool) list
(** Every [(virtual page, physical page, ns)] mapped writable — the set
    the paper's user-execution model havocs. *)
