(* Abstract monitor state (PageDB-level spec state). *)

module Sha256 = Komodo_crypto.Sha256
module Imap = Map.Make (Int)

type plat = {
  npages : int;
  page_size : int;
  secure_base : int;
  insecure_base : int;
  insecure_limit : int;
  monitor_base : int;
  monitor_size : int;
  va_limit : int;
}

type aperms = { w : bool; x : bool }

let pp_aperms p =
  "r" ^ (if p.w then "w" else "") ^ if p.x then "x" else ""

type apte = Psec of int * aperms | Pins of int * aperms
type ameasure = Mctx of Sha256.ctx | Mdone of Sha256.digest | Mopaque
type aspace_state = Sinit | Sfinal | Sstopped

let state_name = function
  | Sinit -> "init"
  | Sfinal -> "final"
  | Sstopped -> "stopped"

type aspace = { l1pt : int; refcount : int; st : aspace_state; meas : ameasure }

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
  | Al1 of { asp : int; slots : int Imap.t }
  | Al2 of { asp : int; slots : apte Imap.t }
  | Adata of { asp : int }
  | Aspare of { asp : int }

type t = { plat : plat; pages : apage Imap.t }

let boot plat =
  let rec fill pages n =
    if n < 0 then pages else fill (Imap.add n Afree pages) (n - 1)
  in
  { plat; pages = fill Imap.empty (plat.npages - 1) }

let get t n =
  match Imap.find n t.pages with
  | p -> p
  | exception Not_found -> invalid_arg (Printf.sprintf "Astate.get: page %d" n)

let set t n p =
  if n < 0 || n >= t.plat.npages then
    invalid_arg (Printf.sprintf "Astate.set: page %d" n);
  { t with pages = Imap.add n p t.pages }

let owner_of = function
  | Afree | Aaddrspace _ -> None
  | Athread th -> Some th.tasp
  | Al1 { asp; _ } | Al2 { asp; _ } | Adata { asp } | Aspare { asp } -> Some asp

let owned t asp =
  Imap.fold
    (fun n p acc -> if owner_of p = Some asp then n :: acc else acc)
    t.pages []
  |> List.rev

(* Layout predicates (Figure 4, restated). *)

let page_pa plat n = plat.secure_base + (n * plat.page_size)

let page_of_pa plat pa =
  if pa < plat.secure_base then None
  else
    let n = (pa - plat.secure_base) / plat.page_size in
    if n < plat.npages && pa mod plat.page_size = 0 then Some n else None

let in_monitor_image plat pa =
  pa >= plat.monitor_base && pa < plat.monitor_base + plat.monitor_size

let in_secure_region plat pa =
  pa >= plat.secure_base && pa < plat.secure_base + (plat.npages * plat.page_size)

let valid_insecure plat pa =
  pa >= plat.insecure_base && pa < plat.insecure_limit
  && (not (in_monitor_image plat pa))
  && not (in_secure_region plat pa)

(* Measurement transcript: records are 16 words, big-endian, zero
   padded to one 64-byte SHA-256 block (§7.2). *)

let be32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let record_block words =
  let buf = Buffer.create 64 in
  List.iter (fun w -> Buffer.add_string buf (be32 w)) words;
  Buffer.add_string buf (String.make (64 - Buffer.length buf) '\000');
  Buffer.contents buf

let tag_thread = 0x7468_7264 (* "thrd" *)
let tag_data = 0x6461_7461 (* "data" *)
let meas_initial = Mctx Sha256.init

let meas_add_thread m ~entry =
  match m with
  | Mctx ctx -> Mctx (Sha256.absorb_block ctx (record_block [ tag_thread; entry ]))
  | Mdone _ -> invalid_arg "meas_add_thread: finalised"
  | Mopaque -> Mopaque

let meas_add_data m ~mapping_word ~contents =
  match (m, contents) with
  | Mdone _, _ -> invalid_arg "meas_add_data: finalised"
  | Mopaque, _ | Mctx _, None -> Mopaque
  | Mctx ctx, Some s ->
      if String.length s <> 4096 then invalid_arg "meas_add_data: contents";
      let ctx = Sha256.absorb_block ctx (record_block [ tag_data; mapping_word ]) in
      let rec absorb ctx off =
        if off >= 4096 then ctx
        else absorb (Sha256.absorb_block ctx (String.sub s off 64)) (off + 64)
      in
      Mctx (absorb ctx 0)

let meas_finalise = function
  | Mctx ctx -> Mdone (Sha256.finalize ctx)
  | Mdone _ -> invalid_arg "meas_finalise: finalised"
  | Mopaque -> Mopaque

let meas_digest = function
  | Mctx ctx -> Some (Sha256.finalize ctx)
  | Mdone d -> Some d
  | Mopaque -> None

(* Equal contexts finalise to equal digests, so two open transcripts
   are compared as contexts first and finalised only if those differ. *)
let equal_meas a b =
  match (a, b) with
  | Mctx c1, Mctx c2 when Sha256.equal_ctx c1 c2 -> true
  | _ -> (
      match (meas_digest a, meas_digest b) with
      | Some d1, Some d2 -> String.equal d1 d2
      | None, _ | _, None -> true (* opaque compares equal to anything *))

(* Rendering and comparison. *)

let pp_meas m =
  match meas_digest m with
  | None -> "opaque"
  | Some d -> String.sub (Sha256.to_hex d) 0 12

let pp_slots pp_v slots =
  let entries = Imap.bindings slots in
  let n = List.length entries in
  let shown = if n > 8 then List.filteri (fun i _ -> i < 8) entries else entries in
  let body =
    String.concat ";"
      (List.map (fun (i, v) -> Printf.sprintf "%d->%s" i (pp_v v)) shown)
  in
  if n > 8 then Printf.sprintf "[%s;..%d]" body n else "[" ^ body ^ "]"

let pp_pte = function
  | Psec (pg, p) -> Printf.sprintf "sec(%d,%s)" pg (pp_aperms p)
  | Pins (pa, p) -> Printf.sprintf "ins(0x%x,%s)" pa (pp_aperms p)

let type_name = function
  | Afree -> "free"
  | Aaddrspace _ -> "addrspace"
  | Athread _ -> "thread"
  | Al1 _ -> "l1ptable"
  | Al2 _ -> "l2ptable"
  | Adata _ -> "datapage"
  | Aspare _ -> "sparepage"

let pp_page = function
  | Afree -> "free"
  | Aaddrspace a ->
      Printf.sprintf "addrspace{l1pt=%d;ref=%d;%s;meas=%s}" a.l1pt a.refcount
        (state_name a.st) (pp_meas a.meas)
  | Athread th ->
      Printf.sprintf "thread{asp=%d;entry=0x%x;entered=%b;ctx=%b;disp=%s;fault=%b}"
        th.tasp th.entry th.entered th.has_ctx
        (match th.dispatcher with None -> "-" | Some d -> Printf.sprintf "0x%x" d)
        th.has_fault_ctx
  | Al1 { asp; slots } ->
      Printf.sprintf "l1pt{asp=%d;%s}" asp (pp_slots string_of_int slots)
  | Al2 { asp; slots } -> Printf.sprintf "l2pt{asp=%d;%s}" asp (pp_slots pp_pte slots)
  | Adata { asp } -> Printf.sprintf "data{asp=%d}" asp
  | Aspare { asp } -> Printf.sprintf "spare{asp=%d}" asp

let equal_page a b =
  match (a, b) with
  | Aaddrspace x, Aaddrspace y ->
      x.l1pt = y.l1pt && x.refcount = y.refcount && x.st = y.st
      && equal_meas x.meas y.meas
  | Al1 x, Al1 y -> x.asp = y.asp && Imap.equal Int.equal x.slots y.slots
  | Al2 x, Al2 y -> x.asp = y.asp && Imap.equal ( = ) x.slots y.slots
  | a, b -> a = b

let diff t1 t2 =
  if t1 == t2 then []
  else
    let rec go i acc =
      if i < 0 then acc
      else
        let p1 = get t1 i and p2 = get t2 i in
        go (i - 1) (if p1 == p2 || equal_page p1 p2 then acc else i :: acc)
    in
    let pages = go (min t1.plat.npages t2.plat.npages - 1) [] in
    if t1.plat.npages <> t2.plat.npages then -1 :: pages else pages

let pp_at t n = if n < 0 then string_of_int t.plat.npages ^ " pages" else pp_page (get t n)

let equal t1 t2 = diff t1 t2 = []
