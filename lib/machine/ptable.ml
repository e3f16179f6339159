(** ARM short-descriptor page tables, as used by Komodo enclaves.

    Enclave address spaces cover the low 1 GB of virtual memory only: the
    enclave page table is loaded into TTBR0 which is configured (TTBCR.N)
    to translate just that range, while TTBR1 holds the monitor's static
    table (Figure 4). As in the paper, the model recognises exactly one
    format — 4 kB "small" pages in the short-descriptor format — and says
    nothing about user execution under any other encoding, which forces
    implementations to build conforming tables (§5.1).

    Model-level layout (mirroring Komodo's [KOM_DIR_ENTRIES] grouping of
    four coarse tables per second-level page):
    - a first-level table is 256 word entries, each covering 4 MB;
    - a second-level table page is 1024 word entries, each a 4 kB page;
    - VA bits: [29:22] first-level index, [21:12] second-level index,
      [11:0] page offset. *)

let page_size = 4096
let words_per_page = 1024
let l1_entries = 256
let l2_entries = 1024

(** Upper bound (exclusive) of enclave virtual addresses: 1 GB. *)
let va_limit = Word.of_int 0x4000_0000

let page_aligned w = Word.to_int w land (page_size - 1) = 0
let page_base w = Word.of_int (Word.to_int w land lnot (page_size - 1))

type perms = { w : bool; x : bool } [@@deriving eq, show { with_path = false }]

let r_only = { w = false; x = false }
let rw = { w = true; x = false }
let rx = { w = false; x = true }
let rwx = { w = true; x = true }

let l1_index va = Word.to_int (Word.extract va ~hi:29 ~lo:22)
let l2_index va = Word.to_int (Word.extract va ~hi:21 ~lo:12)
let page_offset va = Word.extract va ~hi:11 ~lo:0

(** First-level entry: bit 0 = present (coarse-table descriptor), bits
    [31:12] = physical base of the second-level table page. *)
let make_l1e ~l2pt_base =
  if not (page_aligned l2pt_base) then invalid_arg "Ptable.make_l1e: unaligned base";
  Word.logor l2pt_base Word.one

let decode_l1e e = if Word.bit e 0 then Some (page_base e) else None

(** Second-level (small page) entry.
    bit 1 = present, bit 0 = XN (execute never), bits [5:4] = AP
    (0b11 user read-write, 0b10 user read-only), bit 3 = NS
    (model-specific: set when the frame is insecure/shared memory),
    bits [31:12] = physical page base. *)
let make_l2e ~base ~ns perms =
  if not (page_aligned base) then invalid_arg "Ptable.make_l2e: unaligned base";
  let ap = if perms.w then 0b11 else 0b10 in
  Word.to_int base lor 2
  lor (if perms.x then 0 else 1)
  lor (ap lsl 4)
  lor (if ns then 8 else 0)
  |> Word.of_int

let l2e_perms e =
  let ap = Word.to_int (Word.extract e ~hi:5 ~lo:4) in
  { w = ap = 0b11; x = not (Word.bit e 0) }

let decode_l2e e =
  if Word.bit e 1 then Some (page_base e, Word.bit e 3, l2e_perms e) else None

(** Result of a successful translation. *)
type frame = { pa : Word.t; ns : bool; perms : perms }

(** Walk the table rooted at [ttbr] (a physical page base holding the
    first-level table) for virtual address [va]. [None] models a
    translation fault. *)
let translate mem ~ttbr va =
  if not (Word.ult va va_limit) then None
  else
    let l1e = Memory.load mem (Word.add ttbr (Word.of_int (4 * l1_index va))) in
    match decode_l1e l1e with
    | None -> None
    | Some l2_base -> (
        let l2e = Memory.load mem (Word.add l2_base (Word.of_int (4 * l2_index va))) in
        match decode_l2e l2e with
        | None -> None
        | Some (pa_base, ns, perms) ->
            Some { pa = Word.add pa_base (page_offset va); ns; perms })

(* The table at [base] read in place: [f slot e] on each of its [n]
   words with bit [present] set, in slot order. A present entry is
   nonzero, so [Memory.iter_nonzero] visits each one, and it stops at
   the page's last stored word. *)
let iter_present ~present mem base n f =
  Memory.iter_nonzero mem base n (fun slot e -> if Word.bit e present then f slot e)

let iter_l1 mem base f =
  iter_present ~present:0 mem base l1_entries (fun i e -> f i (page_base e))

let iter_l2 mem base f =
  iter_present ~present:1 mem base l2_entries (fun i e ->
      f i (page_base e) (Word.bit e 3) (l2e_perms e))

(** Every (virtual page base, physical page base, ns) mapped writable:
    the set the paper's user-mode model havocs when enclave code runs. *)
let writable_pages mem ~ttbr =
  let acc = ref [] in
  iter_l1 mem ttbr (fun i1 l2_base ->
      iter_l2 mem l2_base (fun i2 pa ns perms ->
          if perms.w then
            acc := (Word.of_int ((i1 lsl 22) lor (i2 lsl 12)), pa, ns) :: !acc));
  List.rev !acc
