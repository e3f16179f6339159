(** Fine-grained PageDB locking for the multi-core monitor.

    Two kinds of locks, one per secure page:

    - an {e addrspace lock} — the lock on an address space's own page —
      guards the addrspace entry (lifecycle state, refcount,
      measurement) {e and} the contents of all its page-table pages:
      every call that writes an L1/L2 slot of enclave [a] holds
      [addrspace a]'s lock, so table walks under that lock read a
      frozen table;
    - a {e page lock} guards a single page's PageDB entry and contents
      (the page being retyped, filled, or freed).

    Lock identity is the page number; the kind is an annotation (an
    argument is locked at addrspace level when the call treats it as an
    address space). Mutual exclusion is per page, so a page racing to
    {e become} an address space is serialised with calls that already
    treat it as one.

    Acquisition order — the deadlock-freedom argument — is the page
    number total order, ascending. Every call computes its complete
    footprint up front (no lock coupling) and acquires in that order;
    any two calls therefore order every pair of locks identically and
    no wait-for cycle can form. The stepper's acquisition histories are
    checked against exactly this claim by a qcheck suite
    ({!acyclic}). *)

type level = Addrspace | Page

type t = { level : level; page : int }

let level_name = function Addrspace -> "A" | Page -> "P"
let name l = Printf.sprintf "%s%d" (level_name l.level) l.page

(* Identity and mutual exclusion are by page; [level] is reporting
   metadata. The global acquisition order is ascending page number. *)
let same a b = a.page = b.page
let compare_order a b = Int.compare a.page b.page

let sort_footprint ls = List.sort_uniq compare_order ls

(* -- Footprints ---------------------------------------------------------

   The complete lock set of one SMC, computed syntactically from the
   call and its arguments, plus one PageDB read for calls whose guard
   set depends on ownership (Remove frees a page *and* decrements its
   owner's refcount; Enter/Resume mutate a thread and read its
   addrspace). Out-of-range page arguments take no lock: the handler
   fails validation on them without touching mutable state.

   A footprint read through an unlocked PageDB can be stale; the
   stepper re-computes it after acquisition and restarts when the sets
   differ (optimistic lock acquisition). *)

let footprint (db : Pagedb.t) ~npages ~call ~(args : int list) =
  let arg i = match List.nth_opt args i with Some v -> v land 0xFFFFFFFF | None -> 0 in
  let valid p = p >= 0 && p < npages in
  let a lvl p = if valid p then [ { level = lvl; page = p } ] else [] in
  let raw =
    if call = Abi.smc_get_phys_pages then []
    else if
      call = Abi.smc_init_addrspace || call = Abi.smc_init_thread
      || call = Abi.smc_init_l2ptable || call = Abi.smc_alloc_spare
      || call = Abi.smc_map_secure
    then a Addrspace (arg 0) @ a Page (arg 1)
    else if call = Abi.smc_map_insecure || call = Abi.smc_finalise || call = Abi.smc_stop
    then a Addrspace (arg 0)
    else if call = Abi.smc_enter || call = Abi.smc_resume then begin
      let th = arg 0 in
      let owner =
        if not (valid th) then []
        else
          match Pagedb.get db th with
          | Pagedb.Thread { addrspace; _ } -> a Addrspace addrspace
          | _ -> []
      in
      owner @ a Page th
    end
    else if call = Abi.smc_remove then begin
      let pg = arg 0 in
      if not (valid pg) then []
      else
        match Pagedb.get db pg with
        | Pagedb.Addrspace _ -> a Addrspace pg
        | e -> (
            match Pagedb.owner e with
            | Some asp -> a Addrspace asp @ a Page pg
            | None -> a Page pg)
    end
    else []
  in
  sort_footprint raw

(* -- The lock table ------------------------------------------------------ *)

module Imap = Map.Make (Int)

(** Owner CPU per held page lock. Functional, so stepper snapshots and
    replays are cheap. *)
type table = int Imap.t

let empty : table = Imap.empty
let owner tbl l = Imap.find_opt l.page tbl

let acquire tbl l ~cpu =
  match Imap.find_opt l.page tbl with
  | Some o when o <> cpu -> Error o
  | Some _ -> invalid_arg (Printf.sprintf "Lock.acquire: %s re-entered" (name l))
  | None -> Ok (Imap.add l.page cpu tbl)

let release tbl l ~cpu =
  match Imap.find_opt l.page tbl with
  | Some o when o = cpu -> Imap.remove l.page tbl
  | Some o ->
      invalid_arg
        (Printf.sprintf "Lock.release: %s held by CPU %d, released by %d" (name l) o cpu)
  | None -> invalid_arg (Printf.sprintf "Lock.release: %s not held" (name l))

let held_by tbl ~cpu =
  Imap.fold (fun page o acc -> if o = cpu then { level = Page; page } :: acc else acc) tbl []

(* -- Acquisition-order consistency --------------------------------------

   One history per completed call: its locks in the order they were
   acquired. The global-order claim is that some total order on locks
   is consistent with *every* history — i.e. the union of
   held-before-acquired edges is acyclic. (With the ascending-page
   discipline the order is [compare_order]; the checker does not assume
   it, so a lock-order-inversion bug shows up as a genuine cycle.) *)

let acyclic (histories : t list list) =
  (* Edges u -> v when u was acquired before v within one call. *)
  let succs = Hashtbl.create 64 in
  let add_edge u v =
    let l = try Hashtbl.find succs u.page with Not_found -> [] in
    if not (List.mem v.page l) then Hashtbl.replace succs u.page (v.page :: l)
  in
  List.iter
    (fun hist ->
      let rec pairs = function
        | u :: (v :: _ as rest) ->
            add_edge u v;
            pairs rest
        | _ -> ()
      in
      pairs hist)
    histories;
  (* DFS cycle detection over the edge set. *)
  let state = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let rec dfs n =
    match Hashtbl.find_opt state n with
    | Some 1 -> false
    | Some _ -> true
    | None ->
        Hashtbl.replace state n 1;
        let ok =
          List.for_all dfs (try Hashtbl.find succs n with Not_found -> [])
        in
        Hashtbl.replace state n 2;
        ok
  in
  Hashtbl.fold (fun n _ ok -> ok && dfs n) succs true
