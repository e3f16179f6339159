(* Abstraction function: Monitor.t -> Astate.t. *)

module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module State = Komodo_machine.State
module Layout = Komodo_tz.Layout
module Platform = Komodo_tz.Platform
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Measure = Komodo_core.Measure
module Imap = Map.Make (Int)
open Astate

let plat ~npages =
  {
    npages;
    page_size = Layout.page_size;
    secure_base = Word.to_int Layout.secure_region_base;
    insecure_base = Word.to_int Layout.insecure_base;
    insecure_limit = Word.to_int Layout.insecure_limit;
    monitor_base = Word.to_int Layout.monitor_image_base;
    monitor_size = Layout.monitor_image_size;
    va_limit = Word.to_int Ptable.va_limit;
  }

let plat_of (m : Monitor.t) = plat ~npages:m.Monitor.plat.Platform.npages

let abs_meas meas = Mdone (Measure.current_digest meas)

let abs_perms (p : Ptable.perms) = { w = p.Ptable.w; x = p.Ptable.x }

(* Decode a live first-level table page: slot -> second-level page
   number. A decodable entry whose target is not a secure page maps to
   -1, surfacing the breakage as a divergence instead of crashing. *)
let abs_l1 (m : Monitor.t) pg =
  let npages = m.Monitor.plat.Platform.npages in
  let slots = ref Imap.empty in
  Ptable.iter_l1 m.Monitor.mach.State.mem (Monitor.page_pa m pg) (fun i base ->
      let l2pg = Option.value (Layout.page_of_pa ~npages base) ~default:(-1) in
      slots := Imap.add i l2pg !slots);
  !slots

let abs_l2 (m : Monitor.t) pg =
  let npages = m.Monitor.plat.Platform.npages in
  let slots = ref Imap.empty in
  Ptable.iter_l2 m.Monitor.mach.State.mem (Monitor.page_pa m pg) (fun i pa ns perms ->
      let pte =
        if ns then Pins (Word.to_int pa, abs_perms perms)
        else
          let data = Option.value (Layout.page_of_pa ~npages pa) ~default:(-1) in
          Psec (data, abs_perms perms)
      in
      slots := Imap.add i pte !slots);
  !slots

(* Decoding live page tables is the expensive part of the abstraction
   function, and the differential checker re-runs [abs] after every
   operation. The cache keys a table page's decoded slots on the
   identity of the memory chunk backing it: chunks are never mutated,
   so identity implies identical contents, and any store to the page
   replaces its chunk and misses naturally. *)
type centry = { c_page : Komodo_machine.Memory.page option; c_slots : l1l2 }
and l1l2 = Cl1 of int Imap.t | Cl2 of apte Imap.t

type cache = (int, centry) Hashtbl.t

let cache () : cache = Hashtbl.create 64

let page_chunk (m : Monitor.t) n =
  Komodo_machine.Memory.page_at m.Monitor.mach.State.mem
    (Monitor.page_pa m n)

let cached_slots cache m n decode wrap =
  match cache with
  | None -> wrap (decode m n)
  | Some tbl -> (
      let chunk = page_chunk m n in
      match Hashtbl.find_opt tbl n with
      | Some e when Komodo_machine.Memory.same_page e.c_page chunk ->
          e.c_slots
      | _ ->
          let slots = wrap (decode m n) in
          Hashtbl.replace tbl n { c_page = chunk; c_slots = slots };
          slots)

let abs_l1_cached cache m n =
  match cached_slots cache m n abs_l1 (fun s -> Cl1 s) with
  | Cl1 s -> s
  | Cl2 _ -> abs_l1 m n

let abs_l2_cached cache m n =
  match cached_slots cache m n abs_l2 (fun s -> Cl2 s) with
  | Cl2 s -> s
  | Cl1 _ -> abs_l2 m n

let abs_page ?cache:c (m : Monitor.t) n = function
  | Pagedb.Free -> Afree
  | Pagedb.Addrspace a ->
      Aaddrspace
        {
          l1pt = a.Pagedb.l1pt;
          refcount = a.Pagedb.refcount;
          st =
            (match a.Pagedb.state with
            | Pagedb.Init -> Sinit
            | Pagedb.Final -> Sfinal
            | Pagedb.Stopped -> Sstopped);
          meas = abs_meas a.Pagedb.measurement;
        }
  | Pagedb.Thread th ->
      Athread
        {
          tasp = th.Pagedb.addrspace;
          entry = Word.to_int th.Pagedb.entry_point;
          entered = th.Pagedb.entered;
          has_ctx = th.Pagedb.ctx <> None;
          dispatcher = Option.map Word.to_int th.Pagedb.dispatcher;
          has_fault_ctx = th.Pagedb.fault_ctx <> None;
        }
  | Pagedb.L1PTable { addrspace } ->
      Al1 { asp = addrspace; slots = abs_l1_cached c m n }
  | Pagedb.L2PTable { addrspace } ->
      Al2 { asp = addrspace; slots = abs_l2_cached c m n }
  | Pagedb.DataPage { addrspace } -> Adata { asp = addrspace }
  | Pagedb.SparePage { addrspace } -> Aspare { asp = addrspace }

let abs ?cache (m : Monitor.t) =
  let plat = plat_of m in
  let rec go i pages =
    if i >= plat.npages then pages
    else
      go (i + 1)
        (Imap.add i (abs_page ?cache m i (Pagedb.get m.Monitor.pagedb i)) pages)
  in
  { plat; pages = go 0 Imap.empty }
