(** The PageDB: Komodo's analogue of the SGX enclave page cache map.

    For every secure page it stores the allocation state and, if
    allocated, the page's type and owning address space (§4, §5.2). The
    abstract representation here deliberately omits page *contents* —
    those live in machine memory — mirroring the paper's split between
    the abstract PageDB and the concrete state related by refinement.

    A valid PageDB satisfies internal-consistency invariants (reference
    counts correct, internal references well-typed and intra-enclave,
    page-table leaves pointing only at same-enclave data pages or
    insecure memory); {!wf} checks them all and is exercised after every
    monitor call by the test suite, as the paper proves of every SMC and
    SVC. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Ptable = Komodo_machine.Ptable
module Platform = Komodo_tz.Platform
module Layout = Komodo_tz.Layout

type pagenr = int

type addrspace_state = Init | Final | Stopped
[@@deriving eq, show { with_path = false }]

(** Saved user context of a suspended (entered) thread: r0-r12, SP, LR,
    the resumption PC (code image base + flat index), and the saved
    CPSR. *)
type thread_ctx = {
  regs : Word.t list;
  image : Word.t;  (** code-image base VA the PC indexes into *)
  pc : Word.t;
  cpsr : Word.t;
}

let equal_thread_ctx a b =
  List.equal Word.equal a.regs b.regs
  && Word.equal a.image b.image
  && Word.equal a.pc b.pc && Word.equal a.cpsr b.cpsr

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
      (** LibOS-style fault-handler entry point registered by the enclave
          (the dispatcher interface of the paper's §9.2); [None] gives
          the base behaviour of exiting with [Fault]. *)
  fault_ctx : thread_ctx option;
      (** context saved when control was upcalled to the dispatcher;
          restored by the ResumeFaulted SVC to retry the access *)
}

type entry =
  | Free
  | Addrspace of addrspace_info
  | Thread of thread_info
  | L1PTable of { addrspace : pagenr }
  | L2PTable of { addrspace : pagenr }
  | DataPage of { addrspace : pagenr }
  | SparePage of { addrspace : pagenr }

(* A page type's code: its index in [type_names]. *)
let type_code = function
  | Free -> 0
  | Addrspace _ -> 1
  | Thread _ -> 2
  | L1PTable _ -> 3
  | L2PTable _ -> 4
  | DataPage _ -> 5
  | SparePage _ -> 6

let type_names =
  [| "free"; "addrspace"; "thread"; "l1ptable"; "l2ptable"; "datapage"; "sparepage" |]

let type_name e = type_names.(type_code e)

(** Owning address space of an allocated page ([None] for [Free] and for
    address-space pages themselves, which own themselves). *)
let owner = function
  | Free | Addrspace _ -> None
  | Thread { addrspace; _ }
  | L1PTable { addrspace }
  | L2PTable { addrspace }
  | DataPage { addrspace }
  | SparePage { addrspace } ->
      Some addrspace

module Pmap = Map.Make (Int)

(* [types] holds every page's type code, one byte per page, so
   [diff_types] compares two PageDBs' types as strings instead of
   walking both entry maps. [set] keeps it in step, and shares it
   unchanged when the page keeps its type. *)
type t = { entries : entry Pmap.t; npages : int; types : string }

let make ~npages = { entries = Pmap.empty; npages; types = String.make npages '\000' }
let npages t = t.npages
let valid_pagenr t n = n >= 0 && n < t.npages

let get t n =
  if not (valid_pagenr t n) then invalid_arg "Pagedb.get: page number out of range";
  match Pmap.find_opt n t.entries with Some e -> e | None -> Free

let set t n e =
  if not (valid_pagenr t n) then invalid_arg "Pagedb.set: page number out of range";
  let entries =
    match e with Free -> Pmap.remove n t.entries | _ -> Pmap.add n e t.entries
  in
  let c = Char.chr (type_code e) in
  let types =
    if t.types.[n] = c then t.types
    else begin
      let b = Bytes.of_string t.types in
      Bytes.set b n c;
      Bytes.unsafe_to_string b
    end
  in
  { t with entries; types }

let is_free t n = match get t n with Free -> true | _ -> false

let addrspace_of t n =
  match get t n with
  | Addrspace a -> Some (n, a)
  | _ -> None

(** All page numbers owned by address space [asp] (excluding the
    address-space page itself). *)
let owned_pages t asp =
  Pmap.fold
    (fun n e acc -> if owner e = Some asp then n :: acc else acc)
    t.entries []
  |> List.rev

(** Number of free pages remaining. *)
let free_count t =
  t.npages - Pmap.cardinal t.entries

let all_addrspaces t =
  Pmap.fold
    (fun n e acc -> match e with Addrspace a -> (n, a) :: acc | _ -> acc)
    t.entries []
  |> List.rev

(** Pages whose *type* differs between [before] and [after], as
    [(page, old_type_name, new_type_name)] in page order — the raw
    material of telemetry's page-transition events. Content-only
    changes (e.g. a thread's saved context) are not transitions. *)
let diff_types before after =
  let b = before.types and a = after.types in
  if String.equal b a then []
  else
    let code s n = if n < String.length s then Char.code s.[n] else 0 in
    let rec from n acc =
      if n < 0 then acc
      else
        let cb = code b n and ca = code a n in
        from (n - 1) (if cb = ca then acc else (n, type_names.(cb), type_names.(ca)) :: acc)
    in
    from (max (String.length b) (String.length a) - 1) []

(* -- Reference-count maintenance -------------------------------------- *)

let bump_refcount t asp delta =
  match get t asp with
  | Addrspace a ->
      let refcount = a.refcount + delta in
      assert (refcount >= 0);
      set t asp (Addrspace { a with refcount })
  | _ -> invalid_arg "Pagedb.bump_refcount: not an address space"

(** Allocate page [n] (must be free) as [e], maintaining the owner's
    refcount. *)
let alloc t n e =
  assert (is_free t n);
  let t = set t n e in
  match owner e with Some asp -> bump_refcount t asp 1 | None -> t

(** Free page [n], maintaining the owner's refcount. *)
let release t n =
  let e = get t n in
  let t = set t n Free in
  match owner e with Some asp -> bump_refcount t asp (-1) | None -> t

(* -- Well-formedness --------------------------------------------------- *)

type violation = { page : pagenr; message : string }

let pp_violation fmt v = Format.fprintf fmt "page %d: %s" v.page v.message

(** Check every PageDB invariant against the concrete memory [mem]
    (needed to inspect page-table contents). Returns all violations;
    the empty list means well-formed. *)
let check (plat : Platform.t) (mem : Memory.t) (t : t) : violation list =
  let bad = ref [] in
  let err page message = bad := { page; message } :: !bad in
  let page_pa n = Platform.page_base plat n in
  (* [get], made total: a page number outside the PageDB reads as a
     free page, so a corrupt reference is reported by its clause
     instead of raising. *)
  let entry n = if valid_pagenr t n then get t n else Free in
  (* Every space's owned pages, counted in one pass over the entries. *)
  let owned = Array.make t.npages 0 in
  Pmap.iter
    (fun _ e ->
      match owner e with
      | Some a when valid_pagenr t a -> owned.(a) <- owned.(a) + 1
      | Some _ | None -> ())
    t.entries;
  (* Per-entry structural checks. *)
  Pmap.iter
    (fun n e ->
      if not (valid_pagenr t n) then err n "page number out of range";
      match e with
      | Free -> err n "Free entry explicitly stored"
      | Addrspace a -> begin
          (* Stopped spaces are mid-teardown: Remove may reclaim the
             first-level table page before the addrspace page itself,
             so the l1pt reference only has to be well-typed while the
             space could still run (Komodo's stopped-addrspace
             exception). *)
          (match entry a.l1pt with
          | L1PTable { addrspace } when addrspace = n -> ()
          | _ when equal_addrspace_state a.state Stopped -> ()
          | L1PTable _ -> err n "l1pt owned by another address space"
          | _ -> err n "l1pt is not an L1PTable");
          let owns = if valid_pagenr t n then owned.(n) else 0 in
          if a.refcount <> owns then
            err n (Printf.sprintf "refcount %d but owns %d pages" a.refcount owns);
          match (a.state, Measure.digest a.measurement) with
          | Init, Some _ -> err n "unfinalised space with measurement digest"
          | (Final | Stopped), None -> err n "final space lacking measurement"
          | _ -> ()
        end
      | Thread th -> begin
          (match entry th.addrspace with
          | Addrspace _ -> ()
          | _ -> err n "thread's addrspace is not an Addrspace");
          (match (th.entered, th.ctx) with
          | true, None -> err n "entered thread without saved context"
          | false, Some _ -> err n "idle thread with stale context"
          | _ -> ());
          List.iter
            (fun ctx ->
              match ctx with
              | Some c when List.length c.regs <> 15 ->
                  err n "thread context must hold 15 registers"
              | _ -> ())
            [ th.ctx; th.fault_ctx ]
        end
      | L1PTable { addrspace }
      | L2PTable { addrspace }
      | DataPage { addrspace }
      | SparePage { addrspace } -> (
          match entry addrspace with
          | Addrspace _ -> ()
          | _ -> err n "owner is not an Addrspace"))
    t.entries;
  (* Page-table content checks: every present first-level entry points
     at an L2PTable of the same space; every leaf maps a same-space
     data page (secure) or valid insecure memory. *)
  List.iter
    (fun (asn, (a : _)) ->
      match a with
      | { l1pt; _ } when not (valid_pagenr t l1pt) -> err asn "l1pt out of range"
      | { state = Stopped; _ } ->
          (* A stopped space can never be entered again, so its tables
             are dead: Remove reclaims them one page at a time, and a
             first-level entry may dangle over a freed second-level
             table mid-teardown. Komodo's invariant makes exactly this
             exception for stopped address spaces. *)
          ()
      | { l1pt; _ } ->
          Ptable.iter_l1 mem (page_pa l1pt) (fun _ l2_base ->
              match Platform.page_of_pa plat l2_base with
              | None -> err l1pt "first-level entry points outside secure region"
              | Some l2n -> (
                  match entry l2n with
                  | L2PTable { addrspace } when addrspace = asn ->
                      Ptable.iter_l2 mem l2_base (fun _ pa ns _ ->
                          if ns then begin
                            if not (Platform.is_valid_insecure plat pa) then
                              err l2n "insecure leaf maps protected memory"
                          end
                          else
                            match Platform.page_of_pa plat pa with
                            | None -> err l2n "secure leaf outside secure region"
                            | Some dn -> (
                                match entry dn with
                                | DataPage { addrspace } when addrspace = asn -> ()
                                | DataPage _ ->
                                    err l2n "leaf maps a data page of another enclave"
                                | e ->
                                    err l2n
                                      (Printf.sprintf "leaf maps a %s page as data"
                                         (type_name e))))
                  | L2PTable _ -> err l1pt "first-level entry crosses enclaves"
                  | e ->
                      err l1pt
                        (Printf.sprintf "first-level entry maps a %s page"
                           (type_name e)))))
    (all_addrspaces t);
  List.rev !bad

let wf plat mem t = check plat mem t = []

(* -- Equality ----------------------------------------------------------- *)

let equal_entry a b =
  a == b
  ||
  match (a, b) with
  | Free, Free -> true
  | Addrspace x, Addrspace y ->
      x.l1pt = y.l1pt && x.refcount = y.refcount
      && equal_addrspace_state x.state y.state
      && Measure.equal x.measurement y.measurement
  | Thread x, Thread y ->
      x.addrspace = y.addrspace
      && Word.equal x.entry_point y.entry_point
      && x.entered = y.entered
      && Option.equal equal_thread_ctx x.ctx y.ctx
      && Option.equal Word.equal x.dispatcher y.dispatcher
      && Option.equal equal_thread_ctx x.fault_ctx y.fault_ctx
  | L1PTable x, L1PTable y -> x.addrspace = y.addrspace
  | L2PTable x, L2PTable y -> x.addrspace = y.addrspace
  | DataPage x, DataPage y -> x.addrspace = y.addrspace
  | SparePage x, SparePage y -> x.addrspace = y.addrspace
  | _ -> false

let equal a b =
  a == b || (a.npages = b.npages && Pmap.equal equal_entry a.entries b.entries)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Pmap.iter
    (fun n e -> Format.fprintf fmt "%4d: %s@ " n (type_name e))
    t.entries;
  Format.fprintf fmt "@]"
