(* Bounded exhaustive model checking of the monitor lifecycle.

   Where the differential checker samples the op-interleaving space
   with a PRNG, this module enumerates it: breadth-first search over
   the pure abstract spec (Aspec.step over Astate) from a small world,
   applying a finite world-covering alphabet to every reachable state
   up to a depth bound, deduplicating states by their canonical
   serialisation (Ahash), and checking five properties on every edge:

     1. exact error priorities, against an independent restatement of
        every precondition chain (the [predict] oracle below);
     2. the PageDB well-formedness invariants on every new state;
     3. measurement-transcript monotonicity across the edge;
     4. the declassification axioms for MapSecure/MapInsecure;
     5. error framing: a failing call leaves the state untouched.

   The oracle deliberately restates the *correct* semantics only: when
   the spec is run under a --mutate flag, the mutated behaviour
   disagrees with the oracle (or breaks an invariant) and the search
   reports the shortest path as a counterexample, replayable through
   the PR-2 differential checker against a concrete machine.

   Exploration is sharded by frontier slice ([expand_range]) and the
   shards are pure up to the read-only visited set, so the campaign
   engine can run a level on any number of domains and merge to
   byte-identical reports. *)

module Os = Komodo_os.Os
module Word = Komodo_machine.Word
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Json = Komodo_telemetry.Json
module Imap = Map.Make (Int)
open Astate

type config = {
  pages : int;
  depth : int;
  seed : int;
  mutate : Aspec.mutation option;
}

let min_pages = 6
let n_prelude = 5

(* The prelude mirrors the first five ops of the differential checker's
   world: probe addrspace 0 with first-level table 1, a second-level
   table 2 covering VA 0, the probe's code page 3 mapped RX at VA 0 and
   a data page 4 mapped RW at 0x1000, and the idle probe thread 5. The
   addrspace is left *unfinalised* so the search covers the whole
   construction phase; Finalise(0) is just another edge. *)
let probe_asp = 0
let probe_th_page = 5

type xop = {
  call : int;
  args : int list;
  forced : [ `Exit | `Interrupted | `Fault ] option;
}

let outcome_name = function
  | `Exit -> "exit"
  | `Interrupted -> "interrupted"
  | `Fault -> "fault"

(* The r0 word an opaque enclave run resolves to, per outcome. *)
let outcome_word = function
  | `Exit -> Aspec.e_success
  | `Interrupted -> Aspec.e_interrupted
  | `Fault -> Aspec.e_fault

let pp_xop x =
  Printf.sprintf "%s(%s)%s" (Aspec.smc_name x.call)
    (String.concat ", " (List.map (Printf.sprintf "0x%x") x.args))
    (match x.forced with
    | None -> ""
    | Some o -> Printf.sprintf " [outcome %s]" (outcome_name o))

type snode = { st : Astate.t; probe_ok : bool }

let node_key nd = (if nd.probe_ok then "p|" else "o|") ^ Ahash.key nd.st
let node_hash nd = Ahash.hex (Ahash.hash_string (node_key nd))

type violation = {
  v_prelude : bool;
  v_depth : int;
  v_reason : string;
  v_ops : xop list;
}

let render_violation v =
  let where =
    if v.v_prelude then "in the prelude"
    else Printf.sprintf "at depth %d" v.v_depth
  in
  Printf.sprintf "violation %s: %s" where v.v_reason
  :: List.mapi (fun i x -> Printf.sprintf "  op %d: %s" i (pp_xop x)) v.v_ops

(* ------------------------------------------------------------------ *)
(* The independent error/return oracle.                               *)
(* ------------------------------------------------------------------ *)

type pred = P of int * int | Opaque

exception E of int

(* Predict [step_smc nd.st call args] without running it: restate every
   precondition chain, in priority order, from Table 1 / the handler
   sources — never by consulting Aspec. Reads of the state are guarded
   (no Stuck can escape); [Opaque] means a legal Enter/Resume of an
   enclave whose execution the spec cannot predict. *)
let predict (nd : snode) ~call ~args =
  let t = nd.st in
  let plat = t.plat in
  let np = plat.npages in
  let arg i =
    match List.nth_opt args i with Some a -> a land 0xffffffff | None -> 0
  in
  let valid n = n >= 0 && n < np in
  let free n =
    if not (valid n) then raise (E Aspec.e_invalid_pageno);
    match get t n with Afree -> () | _ -> raise (E Aspec.e_page_in_use)
  in
  let aspace ?want n =
    if not (valid n) then raise (E Aspec.e_invalid_addrspace);
    match get t n with
    | Aaddrspace a -> (
        match want with
        | None -> a
        | Some s when s = a.st -> a
        | Some Sinit -> raise (E Aspec.e_already_final)
        | Some Sfinal -> raise (E Aspec.e_not_final)
        | Some Sstopped -> raise (E Aspec.e_not_stopped))
    | _ -> raise (E Aspec.e_invalid_addrspace)
  in
  (* Mapping-word validity (the error-relevant half of decode_mapping):
     present bit set, no bits outside r/w/x, VA under the limit. *)
  let decode w =
    let va = w land lnot 0xfff and bits = w land 0xfff in
    if bits land 1 = 0 || bits land lnot 7 <> 0 || va >= plat.va_limit then
      None
    else Some (va, bits land 4 <> 0 (* x bit *))
  in
  let l2i va = (va lsr 12) land 0x3ff in
  let l2slots ~l1pt va =
    match if valid l1pt then get t l1pt else Afree with
    | Al1 { slots; _ } -> (
        match Imap.find_opt ((va lsr 22) land 0xff) slots with
        | None -> None
        | Some l2 -> (
            match if valid l2 then get t l2 else Afree with
            | Al2 { slots; _ } -> Some slots
            | _ -> None))
    | _ -> None
  in
  let own asp n =
    if not (valid n) then raise (E Aspec.e_invalid_pageno);
    let p = get t n in
    if owner_of p = Some asp then p else raise (E Aspec.e_invalid_pageno)
  in
  (* Predicted r0 word of one probe SVC (never raises: SVC errors are
     caught at the SVC boundary, like step_svc's own handler). *)
  let svc_word asp sv a1 a2 =
    try
      if sv = Aspec.svc_get_random then Aspec.e_success
      else if sv = Aspec.svc_attest then
        if (aspace asp).st = Sinit then Aspec.e_not_final else Aspec.e_success
      else if sv = Aspec.svc_verify then
        if a1 land 3 <> 0 then Aspec.e_invalid_arg
        else
          let l1pt = (aspace asp).l1pt in
          let readable va =
            match l2slots ~l1pt va with
            | None -> false
            | Some s -> Imap.mem (l2i va) s
          in
          let rec go i =
            i >= 24 || (readable ((a1 + (4 * i)) land 0xffffffff) && go (i + 1))
          in
          if go 0 then Aspec.e_success else Aspec.e_invalid_arg
      else if sv = Aspec.svc_init_l2ptable then
        match own asp a1 with
        | Aspare _ -> (
            if a2 >= 256 then Aspec.e_invalid_mapping
            else
              match get t (aspace asp).l1pt with
              | Al1 { slots; _ } ->
                  if Imap.mem a2 slots then Aspec.e_addr_in_use
                  else Aspec.e_success
              | _ -> Aspec.e_invalid_mapping)
        | _ -> Aspec.e_page_in_use
      else if sv = Aspec.svc_map_data then
        match decode a2 with
        | None -> Aspec.e_invalid_mapping
        | Some (va, _) -> (
            match own asp a1 with
            | Aspare _ -> (
                match l2slots ~l1pt:(aspace asp).l1pt va with
                | None -> Aspec.e_invalid_mapping
                | Some slots ->
                    if Imap.mem (l2i va) slots then Aspec.e_addr_in_use
                    else Aspec.e_success)
            | _ -> Aspec.e_page_in_use)
      else if sv = Aspec.svc_unmap_data then
        match decode a2 with
        | None -> Aspec.e_invalid_mapping
        | Some (va, _) -> (
            match own asp a1 with
            | Adata _ -> (
                match l2slots ~l1pt:(aspace asp).l1pt va with
                | None -> Aspec.e_invalid_mapping
                | Some slots -> (
                    match Imap.find_opt (l2i va) slots with
                    | Some (Psec (pg, _)) when pg = a1 -> Aspec.e_success
                    | _ -> Aspec.e_invalid_mapping))
            | _ -> Aspec.e_invalid_pageno)
      else if sv = Aspec.svc_set_dispatcher then
        if a1 >= plat.va_limit then Aspec.e_invalid_arg else Aspec.e_success
      else Aspec.e_invalid_arg
    with E e -> e
  in
  let thread n =
    if not (valid n) then raise (E Aspec.e_invalid_thread);
    match get t n with
    | Athread th ->
        (match if valid th.tasp then get t th.tasp else Afree with
        | Aaddrspace { st = Sfinal; _ } -> ()
        | Aaddrspace _ -> raise (E Aspec.e_not_final)
        | _ -> raise (E Aspec.e_invalid_thread));
        th
    | _ -> raise (E Aspec.e_invalid_thread)
  in
  let ok = P (Aspec.e_success, 0) in
  let c = call in
  try
    if c = Aspec.smc_get_phys_pages then P (Aspec.e_success, np)
    else if c = Aspec.smc_init_addrspace then (
      free (arg 0);
      free (arg 1);
      if arg 0 = arg 1 then raise (E Aspec.e_page_in_use);
      ok)
    else if c = Aspec.smc_init_thread then (
      ignore (aspace ~want:Sinit (arg 0));
      free (arg 1);
      ok)
    else if c = Aspec.smc_init_l2ptable then (
      let a = aspace ~want:Sinit (arg 0) in
      free (arg 1);
      if arg 2 >= 256 then raise (E Aspec.e_invalid_mapping);
      (match get t a.l1pt with
      | Al1 { slots; _ } ->
          if Imap.mem (arg 2) slots then raise (E Aspec.e_addr_in_use)
      | _ -> ());
      ok)
    else if c = Aspec.smc_alloc_spare then (
      let a = aspace (arg 0) in
      if a.st = Sstopped then raise (E Aspec.e_not_final);
      free (arg 1);
      ok)
    else if c = Aspec.smc_map_secure then (
      let a = aspace ~want:Sinit (arg 0) in
      free (arg 1);
      (match decode (arg 2) with
      | None -> raise (E Aspec.e_invalid_mapping)
      | Some _ -> ());
      let content = arg 3 in
      let insecure_ok = valid_insecure plat content in
      if not (content = 0 || (content land 0xfff = 0 && insecure_ok)) then
        raise (E Aspec.e_invalid_arg);
      let va, _ = Option.get (decode (arg 2)) in
      (match l2slots ~l1pt:a.l1pt va with
      | None -> raise (E Aspec.e_invalid_mapping)
      | Some slots ->
          if Imap.mem (l2i va) slots then raise (E Aspec.e_addr_in_use));
      ok)
    else if c = Aspec.smc_map_insecure then (
      let a = aspace ~want:Sinit (arg 0) in
      (match decode (arg 1) with
      | None -> raise (E Aspec.e_invalid_mapping)
      | Some (_, x) -> if x then raise (E Aspec.e_invalid_mapping));
      let target = arg 2 in
      if not (target land 0xfff = 0 && valid_insecure plat target) then
        raise (E Aspec.e_invalid_arg);
      let va, _ = Option.get (decode (arg 1)) in
      (match l2slots ~l1pt:a.l1pt va with
      | None -> raise (E Aspec.e_invalid_mapping)
      | Some slots ->
          if Imap.mem (l2i va) slots then raise (E Aspec.e_addr_in_use));
      ok)
    else if c = Aspec.smc_finalise then (
      ignore (aspace ~want:Sinit (arg 0));
      ok)
    else if c = Aspec.smc_enter then (
      let n = arg 0 in
      let th = thread n in
      if th.entered then raise (E Aspec.e_already_entered);
      if nd.probe_ok && n = probe_th_page && Diff.probe_shape t then
        let sv = arg 1 and a1 = arg 2 and a2 = arg 3 in
        if sv = Aspec.svc_exit then P (Aspec.e_success, a1)
        else if sv = Aspec.svc_resume_faulted then
          P (Aspec.e_success, Aspec.e_not_entered)
        else P (Aspec.e_success, svc_word th.tasp sv a1 a2)
      else Opaque)
    else if c = Aspec.smc_resume then (
      let th = thread (arg 0) in
      if not (th.entered && th.has_ctx) then raise (E Aspec.e_not_entered);
      Opaque)
    else if c = Aspec.smc_stop then (
      let a = aspace (arg 0) in
      if a.st = Sinit then raise (E Aspec.e_not_final);
      ok)
    else if c = Aspec.smc_remove then (
      let n = arg 0 in
      if not (valid n) then raise (E Aspec.e_invalid_pageno);
      match get t n with
      | Afree -> raise (E Aspec.e_invalid_pageno)
      | Aspare _ -> ok
      | Aaddrspace a ->
          if a.st <> Sstopped then raise (E Aspec.e_not_stopped)
          else if a.refcount > 0 then raise (E Aspec.e_in_use)
          else ok
      | Athread { tasp = asp; _ } | Al1 { asp; _ } | Al2 { asp; _ } | Adata { asp }
        -> (
          match if valid asp then get t asp else Afree with
          | Aaddrspace { st = Sstopped; _ } -> ok
          | _ -> raise (E Aspec.e_not_stopped)))
    else raise (E Aspec.e_invalid_arg)
  with E e -> P (e, 0)

(* ------------------------------------------------------------------ *)
(* Per-edge property checks.                                          *)
(* ------------------------------------------------------------------ *)

let rank = function Sinit -> 0 | Sfinal -> 1 | Sstopped -> 2

(* PageDB well-formedness of one state. First failure wins (the scan
   order is fixed, so reports are deterministic). Stopped address
   spaces are exempt from table-target checks: Remove legitimately
   frees their pages one by one, dangling the stopped tables. *)
let check_state (t : Astate.t) : string option =
  let np = t.plat.npages in
  let bad = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt
  in
  let valid n = n >= 0 && n < np in
  let is_asp n =
    valid n && match get t n with Aaddrspace _ -> true | _ -> false
  in
  let live n =
    valid n
    && match get t n with
       | Aaddrspace { st = Sinit | Sfinal; _ } -> true
       | _ -> false
  in
  for n = 0 to np - 1 do
    match get t n with
    | Afree -> ()
    | Aaddrspace a ->
        let owned_n = List.length (owned t n) in
        if a.refcount <> owned_n then
          fail "invariant: addrspace %d refcount %d but owns %d pages" n
            a.refcount owned_n;
        (match (a.st, a.meas) with
        | Sinit, Mctx _ -> ()
        | Sinit, _ ->
            fail "invariant: init addrspace %d without an in-progress transcript"
              n
        | (Sfinal | Sstopped), Mdone _ -> ()
        | (Sfinal | Sstopped), _ ->
            fail "invariant: %s addrspace %d without a finalised digest"
              (state_name a.st) n);
        if a.st <> Sstopped then
          if not (valid a.l1pt) then
            fail "invariant: addrspace %d l1pt %d out of range" n a.l1pt
          else (
            match get t a.l1pt with
            | Al1 { asp; _ } when asp = n -> ()
            | p ->
                fail "invariant: addrspace %d l1pt %d is %s" n a.l1pt
                  (pp_page p))
    | Athread th ->
        if not (is_asp th.tasp) then
          fail "invariant: thread %d of non-addrspace %d" n th.tasp;
        if th.has_ctx && not th.entered then
          fail "invariant: thread %d has a context but is not entered" n
    | Al1 { asp; slots } ->
        if not (is_asp asp) then
          fail "invariant: first-level table %d of non-addrspace %d" n asp
        else if live asp then (
          (match get t asp with
          | Aaddrspace a when a.l1pt = n -> ()
          | _ ->
              fail "invariant: first-level table %d is not addrspace %d's l1pt"
                n asp);
          Imap.iter
            (fun idx l2 ->
              if idx < 0 || idx > 255 then
                fail "invariant: first-level slot %d out of range in page %d"
                  idx n;
              if not (valid l2) then
                fail "invariant: first-level slot %d maps out-of-range page %d"
                  idx l2
              else
                match get t l2 with
                | Al2 { asp = a2; _ } when a2 = asp -> ()
                | p ->
                    fail
                      "invariant: first-level slot %d of addrspace %d maps \
                       page %d which is %s"
                      idx asp l2 (pp_page p))
            slots)
    | Al2 { asp; slots } ->
        if not (is_asp asp) then
          fail "invariant: second-level table %d of non-addrspace %d" n asp
        else if live asp then
          Imap.iter
            (fun idx pte ->
              if idx < 0 || idx > 1023 then
                fail "invariant: second-level slot %d out of range in page %d"
                  idx n;
              match pte with
              | Psec (pg, _) -> (
                  if not (valid pg) then
                    fail
                      "invariant: secure mapping in page %d slot %d targets \
                       out-of-range page %d"
                      n idx pg
                  else
                    match get t pg with
                    | Adata { asp = a2 } when a2 = asp -> ()
                    | p ->
                        fail
                          "invariant: secure mapping in page %d slot %d \
                           targets %s"
                          n idx (pp_page p))
              | Pins _ -> ())
            slots
    | Adata { asp } ->
        if not (is_asp asp) then
          fail "invariant: data page %d of non-addrspace %d" n asp
    | Aspare { asp } ->
        if not (is_asp asp) then
          fail "invariant: spare page %d of non-addrspace %d" n asp
  done;
  (* Alias freedom across the live enclaves: no second-level table
     reachable through two first-level slots, no data page mapped at
     two enclave VAs. *)
  let seen_l2 = Hashtbl.create 16 and seen_sec = Hashtbl.create 16 in
  for n = 0 to np - 1 do
    match get t n with
    | Al1 { asp; slots } when live asp ->
        Imap.iter
          (fun _ l2 ->
            if Hashtbl.mem seen_l2 l2 then
              fail
                "invariant: second-level table %d reachable through two \
                 first-level slots"
                l2
            else Hashtbl.add seen_l2 l2 ())
          slots
    | Al2 { asp; slots } when live asp ->
        Imap.iter
          (fun _ pte ->
            match pte with
            | Psec (pg, _) ->
                if Hashtbl.mem seen_sec pg then
                  fail "invariant: data page %d mapped at two enclave VAs" pg
                else Hashtbl.add seen_sec pg ()
            | Pins _ -> ())
          slots
    | _ -> ()
  done;
  !bad

(* Measurement/lifecycle monotonicity across one edge, driven by the
   diff of the two states (pages untouched by the op need no check). *)
let check_mono (pre : Astate.t) (post : Astate.t) diffs : string option =
  let bad = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt
  in
  List.iter
    (fun (n, _, _) ->
      match (get pre n, get post n) with
      | Aaddrspace a, Aaddrspace b -> (
          if rank b.st < rank a.st then
            fail "monotonicity: addrspace %d went %s -> %s" n
              (state_name a.st) (state_name b.st);
          match (a.meas, b.meas) with
          | Mdone d, Mdone d' ->
              if not (String.equal d d') then
                fail "monotonicity: finalised measurement of addrspace %d \
                      changed" n
          | Mdone _, _ ->
              fail "monotonicity: finalised measurement of addrspace %d \
                    reopened" n
          | Mctx c, Mctx c' ->
              let bc = Sha256.blocks_absorbed c
              and bc' = Sha256.blocks_absorbed c' in
              if bc' < bc then
                fail "monotonicity: transcript of addrspace %d lost %d blocks"
                  n (bc - bc')
              else if bc' = bc && not (Sha256.equal_ctx c c') then
                fail "monotonicity: transcript of addrspace %d rewritten in \
                      place" n
          | Mctx c, Mdone d ->
              if not (String.equal d (Sha256.finalize c)) then
                fail "monotonicity: Finalise of addrspace %d is not the \
                      finalisation of its in-progress transcript" n
          | Mopaque, _ | _, Mopaque ->
              fail "monotonicity: opaque measurement transcript on addrspace \
                    %d" n)
      | Aaddrspace a, p -> (
          match p with
          | Afree when a.st = Sstopped && a.refcount = 0 -> ()
          | _ ->
              fail "monotonicity: addrspace %d (%s, refcount %d) became %s" n
                (state_name a.st) a.refcount (pp_page p))
      | _ -> ())
    diffs;
  !bad

(* Declassification: a successful MapSecure only ever read initial
   contents from zero or page-aligned genuinely-insecure RAM; a
   successful MapInsecure only ever mapped page-aligned insecure RAM.
   Neither may touch the monitor image or the secure region. *)
let check_declass (plat : plat) (x : xop) : string option =
  let arg i =
    match List.nth_opt x.args i with Some a -> a land 0xffffffff | None -> 0
  in
  if x.call = Aspec.smc_map_secure then
    let c = arg 3 in
    if not (c = 0 || (c land 0xfff = 0 && valid_insecure plat c)) then
      Some
        (Printf.sprintf
           "declassification: MapSecure read initial contents from 0x%x, \
            which is not page-aligned insecure RAM"
           c)
    else None
  else if x.call = Aspec.smc_map_insecure then
    let tgt = arg 2 in
    if not (tgt land 0xfff = 0 && valid_insecure plat tgt) then
      Some
        (Printf.sprintf
           "declassification: MapInsecure mapped 0x%x, which is not \
            page-aligned insecure RAM"
           tgt)
    else None
  else None

(* ------------------------------------------------------------------ *)
(* The checked edge.                                                  *)
(* ------------------------------------------------------------------ *)

let zeros4096 = String.make 4096 '\000'

(* Abstract MapSecure contents oracle. The concrete world (built by
   [replay_lines]) zeroes the staging window after the prelude, and the
   alphabet's content pool only names addresses inside it, so every
   valid post-prelude source reads as a zero page — exactly what
   Diff.apply_op's contents oracle will observe on replay. *)
let contents_abs (t : Astate.t) ~call ~args =
  if call <> Aspec.smc_map_secure then None
  else
    match args with
    | _ :: _ :: _ :: c :: _ ->
        let c = c land 0xffffffff in
        if c <> 0 && c land 0xfff = 0 && valid_insecure t.plat c then
          Some zeros4096
        else None
    | _ -> None

(* Apply one op to one node with every check armed. [Ok] is the
   destination node ([src] itself for error edges and no-op successes);
   [Error] is a violation reason. [contents_override] feeds the prelude
   op that stages the probe image (post-prelude sources are zeros). *)
let edge ?contents_override ~mutate cover (src : snode) (x : xop) :
    (snode, string) Stdlib.result =
  let t = src.st in
  let probe s n = src.probe_ok && n = probe_th_page && Diff.probe_shape s in
  let contents =
    match contents_override with
    | Some _ as c -> c
    | None -> contents_abs t ~call:x.call ~args:x.args
  in
  let pred = predict src ~call:x.call ~args:x.args in
  let is_probe_enter =
    x.call = Aspec.smc_enter
    &&
    match x.args with
    | th :: _ -> probe t (th land 0xffffffff)
    | [] -> false
  in
  (* Break-only probe latch, identical to Diff.apply_op's. *)
  let finish st' =
    Ok
      {
        st = st';
        probe_ok =
          src.probe_ok
          && ((not (Diff.probe_shape t)) || Diff.probe_shape st');
      }
  in
  let check_new_state st' =
    let diffs = Astate.diff t st' in
    match check_mono t st' diffs with
    | Some r -> Error r
    | None -> (
        match check_state st' with
        | Some r -> Error r
        | None ->
            List.iter
              (fun (n, _, _) ->
                let f = type_name (get t n) and g = type_name (get st' n) in
                if f <> g then Cover.record_transition cover ~from_type:f ~to_type:g)
              diffs;
            finish st')
  in
  match
    Aspec.step_smc ?mutate ~rng_exhausted:false t ~probe ~contents
      ~call:x.call ~args:x.args
  with
  | exception Aspec.Stuck msg -> Error ("spec stuck: " ^ msg)
  | Aspec.Done (st', err, ret) ->
      if x.forced <> None then
        Error
          (Printf.sprintf
             "%s: outcome was forced but the spec resolved the call \
              deterministically (%s)"
             (pp_xop x) (Aspec.err_name err))
      else (
        Cover.record_smc cover ~call:x.call ~err;
        (if is_probe_enter && err = Aspec.e_success then
           match x.args with
           | _ :: sv :: _ when sv >= 0 && sv <= 8 ->
               Cover.record_svc cover ~call:sv
                 ~err:(if sv = Aspec.svc_exit then Aspec.e_success else ret)
           | _ -> ());
        match pred with
        | Opaque ->
            Error
              (Printf.sprintf
                 "oracle: %s should be an opaque enclave run, but the spec \
                  resolved it with %s"
                 (pp_xop x) (Aspec.err_name err))
        | P (pe, pr) ->
            if pe <> err then
              Error
                (Printf.sprintf
                   "error priority: %s returned %s, oracle predicts %s"
                   (pp_xop x) (Aspec.err_name err) (Aspec.err_name pe))
            else if pr <> ret then
              Error
                (Printf.sprintf
                   "return value: %s returned 0x%x, oracle predicts 0x%x"
                   (pp_xop x) ret pr)
            else if err <> Aspec.e_success then
              (* Error framing: the handler's exception frame restores
                 the original state binding, so a failing call must
                 leave the state physically untouched. *)
              if st' == t || Astate.equal st' t then Ok src
              else
                Error
                  (Printf.sprintf
                     "error framing: failing %s mutated the abstract state"
                     (pp_xop x))
            else if st' == t then Ok src
            else (
              match check_declass t.plat x with
              | Some r -> Error r
              | None -> check_new_state st'))
  | Aspec.Pending p -> (
      match x.forced with
      | None ->
          Error
            (Printf.sprintf
               "%s: the spec left an opaque enclave run pending but no \
                outcome was forced (alphabet bug)"
               (pp_xop x))
      | Some o ->
          if pred <> Opaque then
            Error
              (Printf.sprintf
                 "oracle: %s resolved opaquely, but the oracle predicts %s"
                 (pp_xop x)
                 (match pred with
                 | P (e, _) -> Aspec.err_name e
                 | Opaque -> "opaque"))
          else (
            Cover.record_smc cover ~call:x.call ~err:(outcome_word o);
            match Aspec.resolve t p ~outcome:o with
            | exception Aspec.Stuck msg -> Error ("spec stuck: " ^ msg)
            | st' -> check_new_state st'))

(* ------------------------------------------------------------------ *)
(* The world and its prelude.                                         *)
(* ------------------------------------------------------------------ *)

type world = {
  w_cfg : config;
  w_root : snode;
  w_prelude : xop list;
  w_prelude_edges : int;
  w_cover : Cover.t;
  w_violation : violation option;
}

let smc call args = { call; args; forced = None }

(* mapping words: present | write | (x ? execute) *)
let mapping_rx va = va lor 0x5
let mapping_rw va = va lor 0x3

let page_image prog = List.hd (Uprog.to_page_images (Uprog.code_words prog))

let prelude_template staging =
  [
    (smc Aspec.smc_init_addrspace [ probe_asp; 1 ], None);
    (smc Aspec.smc_init_l2ptable [ probe_asp; 2; 0 ], None);
    ( smc Aspec.smc_map_secure [ probe_asp; 3; mapping_rx 0; staging ],
      Some (page_image Progs.svc_probe) );
    (smc Aspec.smc_map_secure [ probe_asp; 4; mapping_rw 0x1000; 0 ], None);
    (smc Aspec.smc_init_thread [ probe_asp; probe_th_page; 0 ], None);
  ]

let make_world (cfg : config) =
  if cfg.pages < min_pages then
    invalid_arg "Explore.make_world: need at least 6 pages for the prelude";
  if cfg.depth < 0 then invalid_arg "Explore.make_world: negative depth";
  let staging = Word.to_int Os.staging_base in
  let prelude = prelude_template staging in
  let cover = Cover.create () in
  let root0 = { st = Astate.boot (Abs.plat ~npages:cfg.pages); probe_ok = true } in
  let rec go src i = function
    | [] -> (src, i, None)
    | (x, c) :: rest -> (
        match edge ?contents_override:c ~mutate:cfg.mutate cover src x with
        | Ok dst -> go dst (i + 1) rest
        | Error reason ->
            ( src,
              i + 1,
              Some
                {
                  v_prelude = true;
                  v_depth = 0;
                  v_reason = reason;
                  v_ops = List.filteri (fun j _ -> j <= i) (List.map fst prelude);
                } ))
  in
  let final, edges, viol = go root0 0 prelude in
  {
    w_cfg = cfg;
    w_root = final;
    w_prelude = List.map fst prelude;
    w_prelude_edges = edges;
    w_cover = cover;
    w_violation = viol;
  }

let config_of w = w.w_cfg
let root w = w.w_root
let prelude_xops w = w.w_prelude
let prelude_edges w = w.w_prelude_edges
let prelude_cover w = w.w_cover
let prelude_violation w = w.w_violation

(* ------------------------------------------------------------------ *)
(* The alphabet.                                                      *)
(* ------------------------------------------------------------------ *)

(* Page-argument pool. Small worlds (≤10 pages) take every page plus
   one out-of-range representative. Larger worlds are symmetry-reduced:
   all retyped pages, the two lowest free pages, one out-of-range —
   free pages are interchangeable up to renaming, so exploring two
   witnesses (aliasing needs a pair) covers every behaviour class while
   keeping the branching factor independent of the world size. *)
let page_pool (t : Astate.t) =
  let np = t.plat.npages in
  if np <= 10 then List.init (np + 1) Fun.id
  else begin
    let used = ref [] and free = ref [] and nfree = ref 0 in
    for n = 0 to np - 1 do
      match get t n with
      | Afree ->
          if !nfree < 2 then (
            free := n :: !free;
            incr nfree)
      | _ -> used := n :: !used
    done;
    List.rev !used @ List.rev !free @ [ np ]
  end

(* Probe SVC menu as (svc, a1, a2): every call number, with argument
   variants reaching each error class. Page 3 (the probe's code page)
   is never an SVC page argument: unmapping its own code would wedge
   the probe. *)
let probe_menu np =
  [
    (Aspec.svc_exit, 0, 0);
    (Aspec.svc_exit, 0xdead, 0);
    (Aspec.svc_get_random, 0, 0);
    (Aspec.svc_attest, 0, 0);
    (Aspec.svc_verify, 0x1000, 0);
    (Aspec.svc_verify, 0x1040, 0);
    (Aspec.svc_verify, 0x1ff0, 0);
    (Aspec.svc_verify, 0x1001, 0);
    (Aspec.svc_verify, 0x2000, 0);
    (Aspec.svc_init_l2ptable, 6, 1);
    (Aspec.svc_init_l2ptable, 6, 0);
    (Aspec.svc_init_l2ptable, 6, 256);
    (Aspec.svc_init_l2ptable, 4, 1);
    (Aspec.svc_init_l2ptable, np, 1);
    (Aspec.svc_map_data, 6, mapping_rw 0x3000);
    (Aspec.svc_map_data, 6, mapping_rw 0x1000);
    (Aspec.svc_map_data, 6, 0x2000);
    (Aspec.svc_map_data, 6, 0x403003);
    (Aspec.svc_map_data, 4, mapping_rw 0x3000);
    (Aspec.svc_map_data, np, mapping_rw 0x3000);
    (Aspec.svc_unmap_data, 4, mapping_rw 0x1000);
    (Aspec.svc_unmap_data, 4, 0x1000);
    (Aspec.svc_unmap_data, 4, mapping_rw 0x2000);
    (Aspec.svc_unmap_data, 6, mapping_rw 0x1000);
    (Aspec.svc_set_dispatcher, 0, 0);
    (Aspec.svc_set_dispatcher, 0x1000, 0);
    (Aspec.svc_set_dispatcher, 0x40000000, 0);
    (Aspec.svc_resume_faulted, 0, 0);
  ]

let forced_outcomes = [ `Exit; `Interrupted; `Fault ]

let alphabet (w : world) (nd : snode) =
  let t = nd.st in
  let plat = t.plat in
  let np = plat.npages in
  let staging = Word.to_int Os.staging_base in
  let shared = Word.to_int Os.shared_base in
  let pool = page_pool t in
  let buf = ref [] in
  let add x = buf := x :: !buf in
  add (smc Aspec.smc_get_phys_pages []);
  (* unknown call numbers *)
  List.iter (fun c -> add (smc c [])) [ 0; 13; 99 ];
  List.iter
    (fun a -> List.iter (fun b -> add (smc Aspec.smc_init_addrspace [ a; b ])) pool)
    pool;
  List.iter
    (fun a ->
      List.iter (fun p -> add (smc Aspec.smc_init_thread [ a; p; 0 ])) pool)
    pool;
  List.iter
    (fun a ->
      List.iter
        (fun p ->
          List.iter
            (fun idx -> add (smc Aspec.smc_init_l2ptable [ a; p; idx ]))
            [ 0; 1; 256 ])
        pool)
    pool;
  List.iter
    (fun a ->
      List.iter (fun p -> add (smc Aspec.smc_alloc_spare [ a; p ])) pool)
    pool;
  (* MapSecure (mapping, content) pool: valid RX at 0, valid RW pages,
     not-present and junk-bit mappings, VA over the limit, the monitor
     image and an unaligned address as contents. *)
  let ms =
    [
      (mapping_rx 0, staging);
      (mapping_rw 0x1000, 0);
      (mapping_rw 0x2000, staging + 0x1000);
      (0x2000, 0);
      (mapping_rx 0x400000, 0);
      (mapping_rw 0x1000, plat.monitor_base);
      (mapping_rw 0x1000, 0x1001);
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun p ->
          List.iter (fun (m, c) -> add (smc Aspec.smc_map_secure [ a; p; m; c ])) ms)
        pool)
    pool;
  (* MapInsecure (mapping, target) pool: valid, executable (rejected),
     not-present, unaligned target, monitor image, VA over the limit. *)
  let mi =
    [
      (mapping_rw 0x3000, shared);
      (mapping_rw 0x1000, shared);
      (mapping_rx 0x3000 lor 0x2, shared);
      (0x2000, shared);
      (mapping_rw 0x3000, 0x1001);
      (mapping_rw 0x3000, plat.monitor_base);
      (mapping_rw 0x403000, shared);
    ]
  in
  List.iter
    (fun a ->
      List.iter (fun (m, tgt) -> add (smc Aspec.smc_map_insecure [ a; m; tgt ])) mi)
    pool;
  List.iter (fun a -> add (smc Aspec.smc_finalise [ a ])) pool;
  List.iter (fun a -> add (smc Aspec.smc_stop [ a ])) pool;
  List.iter (fun p -> add (smc Aspec.smc_remove [ p ])) pool;
  (* Enter: predicted probe runs branch over the SVC menu; other legal
     enclave runs branch over the three forced outcomes; predicted
     errors need a single representative edge. *)
  List.iter
    (fun th ->
      match predict nd ~call:Aspec.smc_enter ~args:[ th; 0; 0; 0 ] with
      | P (e, _) when e = Aspec.e_success ->
          List.iter
            (fun (sv, a1, a2) -> add (smc Aspec.smc_enter [ th; sv; a1; a2 ]))
            (probe_menu np)
      | P _ -> add (smc Aspec.smc_enter [ th; 0; 0; 0 ])
      | Opaque ->
          List.iter
            (fun o -> add { call = Aspec.smc_enter; args = [ th; 0; 0; 0 ]; forced = Some o })
            forced_outcomes)
    pool;
  List.iter
    (fun th ->
      match predict nd ~call:Aspec.smc_resume ~args:[ th ] with
      | P _ -> add (smc Aspec.smc_resume [ th ])
      | Opaque ->
          List.iter
            (fun o -> add { call = Aspec.smc_resume; args = [ th ]; forced = Some o })
            forced_outcomes)
    pool;
  ignore w;
  List.rev !buf

(* ------------------------------------------------------------------ *)
(* Frontier expansion (the sharded unit of work).                     *)
(* ------------------------------------------------------------------ *)

type shard = {
  sh_edges : int;
  sh_new : (string * snode * int * xop) list;
  sh_cover : Cover.t;
  sh_violation : (int * xop * string) option;
}

let expand_range w ~visited ~frontier ~lo ~hi =
  let cover = Cover.create () in
  let edges = ref 0 in
  let news = ref [] in
  let local = Hashtbl.create 64 in
  let violation = ref None in
  (try
     for i = lo to hi - 1 do
       let src = frontier.(i) in
       List.iter
         (fun x ->
           incr edges;
           match edge ~mutate:w.w_cfg.mutate cover src x with
           | Error reason ->
               violation := Some (i, x, reason);
               raise Exit
           | Ok dst ->
               if dst != src then (
                 let key = node_key dst in
                 if (not (visited key)) && not (Hashtbl.mem local key) then (
                   Hashtbl.add local key ();
                   news := (key, dst, i, x) :: !news)))
         (alphabet w src)
     done
   with Exit -> ());
  {
    sh_edges = !edges;
    sh_new = List.rev !news;
    sh_cover = cover;
    sh_violation = !violation;
  }

type report = {
  x_states : int;
  x_edges : int;
  x_levels : int list;
  x_cover : Cover.t;
  x_violation : violation option;
}

(* ------------------------------------------------------------------ *)
(* Counterexample traces.                                             *)
(* ------------------------------------------------------------------ *)

(* An op line is the differential checker's op codec plus, for a
   forced opaque-run branch, an informational "forced" marker: Diff
   resolves opaque runs from the implementation's observed outcome. *)
let op_to_json x =
  Json.Obj
    ([
       ("call", Json.Int x.call);
       ("args", Json.List (List.map (fun a -> Json.Int a) x.args));
       ("budget", Json.Null);
     ]
    @
    match x.forced with
    | None -> []
    | Some o -> [ ("forced", Json.Str (outcome_name o)) ])

type replayed = Clean of int | Diverged of Diff.divergence

(* Replay a path in differential lockstep against a freshly booted
   concrete world: the probe image is staged before the prelude, and
   the staging window is zeroed once the prelude is done — exactly the
   world the explorer's abstract contents oracle assumed. *)
let replay ~seed (c : Diff.config) ops =
  let os = Os.boot ~seed ~npages:c.Diff.npages () in
  let os = Os.write_bytes os Os.staging_base (page_image Progs.svc_probe) in
  let rs0 =
    { Diff.os; spec = Abs.abs os.Os.mon; probe_ok = true; abs_cache = Abs.cache () }
  in
  let rec go rs i = function
    | [] -> Clean i
    | op :: rest -> (
        let rs =
          if i = n_prelude then
            {
              rs with
              Diff.os =
                Os.write_bytes rs.Diff.os Os.staging_base (String.make 0x4000 '\000');
            }
          else rs
        in
        match Diff.apply_op ?mutate:c.Diff.mutate rs i op with
        | Ok rs' -> go rs' (i + 1) rest
        | Error d -> Diverged d)
  in
  go rs0 0 ops
