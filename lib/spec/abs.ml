(* Abstraction function: Monitor.t -> Astate.t. *)

module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
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

let abs_page (m : Monitor.t) n = function
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
  | Pagedb.L1PTable { addrspace } -> Al1 { asp = addrspace; slots = abs_l1 m n }
  | Pagedb.L2PTable { addrspace } -> Al2 { asp = addrspace; slots = abs_l2 m n }
  | Pagedb.DataPage { addrspace } -> Adata { asp = addrspace }
  | Pagedb.SparePage { addrspace } -> Aspare { asp = addrspace }

(* The differential checker re-runs [abs] after every operation, and an
   operation replaces only a few entries and chunks, so the cache keeps
   the previous abstraction with the entry and table chunk each page
   was abstracted from (see abs.mli). A cache starts as the all-free
   state, which is what a PageDB of [Free] entries and no chunks
   abstracts to, so a first call is the same loop as any other; it
   starts again at a new page count, which fixes the layout. *)
type cache = {
  mutable last : Astate.t;
  mutable entries : Pagedb.entry array;
  mutable chunks : Memory.page option array;
}

let all_free npages =
  let rec go i pages = if i >= npages then pages else go (i + 1) (Imap.add i Afree pages) in
  { plat = plat ~npages; pages = go 0 Imap.empty }

let cache () = { last = all_free 0; entries = [||]; chunks = [||] }

let table_chunk (m : Monitor.t) n = function
  | Pagedb.L1PTable _ | Pagedb.L2PTable _ ->
      Memory.page_at m.Monitor.mach.State.mem (Monitor.page_pa m n)
  | _ -> None

let abs ?cache:(c = cache ()) (m : Monitor.t) =
  let npages = m.Monitor.plat.Platform.npages in
  if Array.length c.entries <> npages then begin
    c.last <- all_free npages;
    c.entries <- Array.make npages Pagedb.Free;
    c.chunks <- Array.make npages None
  end;
  let pages = ref c.last.pages in
  for n = 0 to npages - 1 do
    let e = Pagedb.get m.Monitor.pagedb n in
    let chunk = table_chunk m n e in
    if not (e == c.entries.(n) && Memory.same_page chunk c.chunks.(n)) then begin
      c.entries.(n) <- e;
      c.chunks.(n) <- chunk;
      pages := Imap.add n (abs_page m n e) !pages
    end
  done;
  if !pages != c.last.pages then c.last <- { c.last with pages = !pages };
  c.last
