(* The abstract monitor: pure transition functions over Astate. *)

module Imap = Map.Make (Int)
open Astate

(* Table 1's encoding: call numbers, error words and their names. *)
include Komodo_core.Abi
module Bugs = Komodo_core.Bugs

exception Stuck of string

type pending = { th : int; asp : int; resume : bool }
type result = Done of Astate.t * int * int | Pending of pending

exception Err of int

(* Shared validation, mirroring the priority order of the paper's
   preconditions (which the implementation also follows — checked by
   the error-matrix suite). *)

let l1_index va = (va lsr 22) land 0xff
let l2_index va = (va lsr 12) land 0x3ff

(** The mapping argument of the page-mapping calls: page-aligned
    enclave VA in the high bits, permissions in bits 0-2 (read must be
    set, no stray bits). *)
let decode_mapping plat w =
  let va = w land lnot 0xfff and bits = w land 0xfff in
  if bits land 1 = 0 then None
  else if bits land lnot 7 <> 0 then None
  else if va >= plat.va_limit then None
  else Some (va, { w = bits land 2 <> 0; x = bits land 4 <> 0 })

let valid t n = n >= 0 && n < t.plat.npages

let free_page t n =
  if not (valid t n) then raise (Err e_invalid_pageno)
  else match get t n with Afree -> n | _ -> raise (Err e_page_in_use)

let addrspace_page ?want t n =
  if not (valid t n) then raise (Err e_invalid_addrspace);
  match get t n with
  | Aaddrspace a -> (
      match want with
      | None -> a
      | Some s when s = a.st -> a
      | Some Sinit -> raise (Err e_already_final)
      | Some Sfinal -> raise (Err e_not_final)
      | Some Sstopped -> raise (Err e_not_stopped))
  | _ -> raise (Err e_invalid_addrspace)

let bump t asp d =
  match get t asp with
  | Aaddrspace a -> set t asp (Aaddrspace { a with refcount = a.refcount + d })
  | p ->
      raise
        (Stuck (Printf.sprintf "refcount bump: page %d is %s" asp (pp_page p)))

(** The abstract table walk for one enclave VA: the owning l2 page and
    its slot map. *)
let l2_slots t ~l1pt va =
  match get t l1pt with
  | Al1 { slots; _ } -> (
      match Imap.find_opt (l1_index va) slots with
      | None -> None
      | Some l2pg -> (
          match get t l2pg with
          | Al2 { slots; _ } -> Some (l2pg, slots)
          | p ->
              raise
                (Stuck
                   (Printf.sprintf "l1 slot %d -> page %d which is %s"
                      (l1_index va) l2pg (pp_page p)))))
  | p -> raise (Stuck (Printf.sprintf "l1pt page %d is %s" l1pt (pp_page p)))

let set_l2_slot t ~l2pg slot pte =
  match get t l2pg with
  | Al2 { asp; slots } ->
      let slots =
        match pte with
        | None -> Imap.remove slot slots
        | Some pte -> Imap.add slot pte slots
      in
      set t l2pg (Al2 { asp; slots })
  | _ -> raise (Stuck "set_l2_slot: not an l2 table")

(* -- SVC transitions ---------------------------------------------------- *)

let own_page t ~asp n =
  if not (valid t n) then raise (Err e_invalid_pageno);
  let p = get t n in
  if owner_of p = Some asp then p else raise (Err e_invalid_pageno)

(** Is enclave VA [va] readable through [asp]'s table? (Read permission
    is implicit in presence; the walk masks the VA exactly as the
    short-descriptor indices do, with no range check.) *)
let user_readable t ~l1pt va =
  match l2_slots t ~l1pt va with
  | None -> false
  | Some (_, slots) -> Imap.mem (l2_index va) slots

let step_svc ?mutate ?(rng_exhausted = false) t ~asp ~thread ~call ~a1 ~a2 =
  ignore mutate;
  let a1 = a1 land 0xffffffff and a2 = a2 land 0xffffffff in
  let aspace () = addrspace_page t asp in
  try
    if call = svc_get_random then
      if rng_exhausted then (t, e_entropy_exhausted) else (t, e_success)
    else if call = svc_attest then
      if (aspace ()).st = Sinit then (t, e_not_final) else (t, e_success)
    else if call = svc_verify then begin
      (* 24 user words at r1: word-aligned and every word mapped. *)
      if a1 land 3 <> 0 then (t, e_invalid_arg)
      else
        let l1pt = (aspace ()).l1pt in
        let rec readable i =
          i >= 24
          || user_readable t ~l1pt ((a1 + (4 * i)) land 0xffffffff)
             && readable (i + 1)
        in
        if readable 0 then (t, e_success) else (t, e_invalid_arg)
    end
    else if call = svc_init_l2ptable then begin
      let spare = a1 and idx = a2 in
      match own_page t ~asp spare with
      | Aspare _ ->
          if idx >= 256 then (t, e_invalid_mapping)
          else begin
            match get t (aspace ()).l1pt with
            | Al1 { slots; _ } ->
                if Imap.mem idx slots then (t, e_addr_in_use)
                else
                  let t = set t spare (Al2 { asp; slots = Imap.empty }) in
                  let t =
                    set t (aspace ()).l1pt
                      (Al1 { asp; slots = Imap.add idx spare slots })
                  in
                  (t, e_success)
            | p -> raise (Stuck (Printf.sprintf "l1pt is %s" (pp_page p)))
          end
      | _ -> (t, e_page_in_use)
    end
    else if call = svc_map_data then begin
      match decode_mapping t.plat a2 with
      | None -> (t, e_invalid_mapping)
      | Some (va, perms) -> (
          match own_page t ~asp a1 with
          | Aspare _ -> (
              match l2_slots t ~l1pt:(aspace ()).l1pt va with
              | None -> (t, e_invalid_mapping)
              | Some (l2pg, slots) ->
                  if Imap.mem (l2_index va) slots then (t, e_addr_in_use)
                  else
                    let t = set t a1 (Adata { asp }) in
                    let t =
                      set_l2_slot t ~l2pg (l2_index va) (Some (Psec (a1, perms)))
                    in
                    (t, e_success))
          | _ -> (t, e_page_in_use))
    end
    else if call = svc_unmap_data then begin
      match decode_mapping t.plat a2 with
      | None -> (t, e_invalid_mapping)
      | Some (va, _) -> (
          match own_page t ~asp a1 with
          | Adata _ -> (
              match l2_slots t ~l1pt:(aspace ()).l1pt va with
              | None -> (t, e_invalid_mapping)
              | Some (l2pg, slots) -> (
                  match Imap.find_opt (l2_index va) slots with
                  | Some (Psec (pg, _)) when pg = a1 ->
                      let t = set t a1 (Aspare { asp }) in
                      let t = set_l2_slot t ~l2pg (l2_index va) None in
                      (t, e_success)
                  | _ -> (t, e_invalid_mapping)))
          | _ -> (t, e_invalid_pageno))
    end
    else if call = svc_set_dispatcher then begin
      match get t thread with
      | Athread th ->
          if a1 >= t.plat.va_limit then (t, e_invalid_arg)
          else
            let dispatcher = if a1 = 0 then None else Some a1 in
            (set t thread (Athread { th with dispatcher }), e_success)
      | p -> raise (Stuck (Printf.sprintf "svc thread is %s" (pp_page p)))
    end
    else (t, e_invalid_arg)
  with Err e -> (t, e)

(* -- SMC transitions ---------------------------------------------------- *)

(** Enter/Resume validation: the thread argument must be a thread of a
    finalised enclave. *)
let thread_page t n =
  if not (valid t n) then raise (Err e_invalid_thread);
  match get t n with
  | Athread th -> (
      match get t th.tasp with
      | Aaddrspace { st = Sfinal; _ } -> th
      | Aaddrspace _ -> raise (Err e_not_final)
      | _ -> raise (Err e_invalid_thread))
  | _ -> raise (Err e_invalid_thread)

(** Predict the probe enclave exactly: its program issues one SVC (call
    in entry r0, arguments in entry r1/r2) and exits with the SVC's r0
    error word. Exit and ResumeFaulted are control flow, intercepted by
    the Enter loop before {!step_svc}. *)
let run_probe ?mutate ?rng_exhausted t ~th ~asp ~call ~a1 ~a2 =
  if call = svc_exit then Done (t, e_success, a1)
  else if call = svc_resume_faulted then
    (* No parked fault context: the loop reports Not_entered in r0 and
       continues at the next instruction, so the probe exits with it. *)
    Done (t, e_success, e_not_entered)
  else
    let t, err = step_svc ?mutate ?rng_exhausted t ~asp ~thread:th ~call ~a1 ~a2 in
    Done (t, e_success, err)

let step_smc ?mutate ?rng_exhausted t ~probe ~contents ~call ~args =
  let mut m = mutate = Some m in
  let arg i =
    match List.nth_opt args i with Some a -> a land 0xffffffff | None -> 0
  in
  let ok t = Done (t, e_success, 0) in
  let plat = t.plat in
  try
    if call = smc_get_phys_pages then Done (t, e_success, plat.npages)
    else if call = smc_init_addrspace then begin
      let as_pg = free_page t (arg 0) in
      let l1_pg = free_page t (arg 1) in
      (* Distinct pages — the §9.1 aliasing bug. *)
      if as_pg = l1_pg && not (mut Bugs.No_alias_check) then raise (Err e_page_in_use);
      let t =
        set t as_pg
          (Aaddrspace { l1pt = l1_pg; refcount = 1; st = Sinit; meas = meas_initial })
      in
      ok (set t l1_pg (Al1 { asp = as_pg; slots = Imap.empty }))
    end
    else if call = smc_init_thread then begin
      let as_pg = arg 0 and entry = arg 2 in
      let a = addrspace_page ~want:Sinit t as_pg in
      let th_pg = free_page t (arg 1) in
      let t =
        set t th_pg
          (Athread
             {
               tasp = as_pg;
               entry;
               entered = false;
               has_ctx = false;
               dispatcher = None;
               has_fault_ctx = false;
             })
      in
      let bumped = if mut Bugs.Drop_refcount then a.refcount else a.refcount + 1 in
      ok
        (set t as_pg
           (Aaddrspace
              { a with refcount = bumped; meas = meas_add_thread a.meas ~entry }))
    end
    else if call = smc_init_l2ptable then begin
      let as_pg = arg 0 and idx = arg 2 in
      let a = addrspace_page ~want:Sinit t as_pg in
      let l2_pg = free_page t (arg 1) in
      if idx >= 256 then raise (Err e_invalid_mapping);
      match get t a.l1pt with
      | Al1 { slots; _ } ->
          if Imap.mem idx slots then raise (Err e_addr_in_use);
          let t = set t l2_pg (Al2 { asp = as_pg; slots = Imap.empty }) in
          let t = set t a.l1pt (Al1 { asp = as_pg; slots = Imap.add idx l2_pg slots }) in
          ok (bump t as_pg 1)
      | p -> raise (Stuck (Printf.sprintf "l1pt is %s" (pp_page p)))
    end
    else if call = smc_alloc_spare then begin
      let as_pg = arg 0 in
      let a = addrspace_page t as_pg in
      if a.st = Sstopped then raise (Err e_not_final);
      let sp_pg = free_page t (arg 1) in
      let t = set t sp_pg (Aspare { asp = as_pg }) in
      ok (bump t as_pg 1)
    end
    else if call = smc_map_secure then begin
      let as_pg = arg 0 and map_w = arg 2 and content = arg 3 in
      let a = addrspace_page ~want:Sinit t as_pg in
      let data_pg = free_page t (arg 1) in
      match decode_mapping plat map_w with
      | None -> raise (Err e_invalid_mapping)
      | Some (va, perms) ->
          (* Initial contents must be page-aligned, genuinely insecure
             memory — in particular not the monitor's own image (§9.1);
             0 means zero-fill. *)
          let insecure_ok =
            mut Bugs.No_monitor_image_check
            || content >= plat.insecure_base
               && content < plat.insecure_limit
               && (not (in_monitor_image plat content))
               && not (in_secure_region plat content)
          in
          if not (content = 0 || (content land 0xfff = 0 && insecure_ok)) then
            raise (Err e_invalid_arg);
          (match l2_slots t ~l1pt:a.l1pt va with
          | None -> raise (Err e_invalid_mapping)
          | Some (l2pg, slots) ->
              if Imap.mem (l2_index va) slots then raise (Err e_addr_in_use);
              let contents =
                if content = 0 then Some (String.make 4096 '\000') else contents
              in
              let t = set t data_pg (Adata { asp = as_pg }) in
              let t =
                set_l2_slot t ~l2pg (l2_index va) (Some (Psec (data_pg, perms)))
              in
              let t =
                set t as_pg
                  (Aaddrspace
                     {
                       a with
                       refcount = a.refcount + 1;
                       meas = meas_add_data a.meas ~mapping_word:map_w ~contents;
                     })
              in
              ok t)
    end
    else if call = smc_map_insecure then begin
      let as_pg = arg 0 and map_w = arg 1 and target = arg 2 in
      let a = addrspace_page ~want:Sinit t as_pg in
      match decode_mapping plat map_w with
      | None -> raise (Err e_invalid_mapping)
      | Some (va, perms) ->
          if perms.x then raise (Err e_invalid_mapping);
          if not (target land 0xfff = 0 && valid_insecure plat target) then
            raise (Err e_invalid_arg);
          (match l2_slots t ~l1pt:a.l1pt va with
          | None -> raise (Err e_invalid_mapping)
          | Some (l2pg, slots) ->
              if Imap.mem (l2_index va) slots then raise (Err e_addr_in_use);
              ok (set_l2_slot t ~l2pg (l2_index va) (Some (Pins (target, perms)))))
    end
    else if call = smc_finalise then begin
      let as_pg = arg 0 in
      let a = addrspace_page ~want:Sinit t as_pg in
      ok (set t as_pg (Aaddrspace { a with st = Sfinal; meas = meas_finalise a.meas }))
    end
    else if call = smc_enter then begin
      let th_pg = arg 0 in
      let th = thread_page t th_pg in
      if th.entered then raise (Err e_already_entered);
      if probe t th_pg then
        run_probe ?mutate ?rng_exhausted t ~th:th_pg ~asp:th.tasp ~call:(arg 1)
          ~a1:(arg 2) ~a2:(arg 3)
      else Pending { th = th_pg; asp = th.tasp; resume = false }
    end
    else if call = smc_resume then begin
      let th_pg = arg 0 in
      let th = thread_page t th_pg in
      if not (th.entered && th.has_ctx) then raise (Err e_not_entered);
      Pending { th = th_pg; asp = th.tasp; resume = true }
    end
    else if call = smc_stop then begin
      let as_pg = arg 0 in
      let a = addrspace_page t as_pg in
      if a.st = Sinit then raise (Err e_not_final);
      ok (set t as_pg (Aaddrspace { a with st = Sstopped }))
    end
    else if call = smc_remove then begin
      let pg = arg 0 in
      if not (valid t pg) then raise (Err e_invalid_pageno);
      let release t pg asp = bump (set t pg Afree) asp (-1) in
      match get t pg with
      | Afree -> raise (Err e_invalid_pageno)
      | Aspare { asp } ->
          (* Spares may be reclaimed from any enclave at any time. *)
          ok (release t pg asp)
      | Aaddrspace a ->
          if a.st <> Sstopped then raise (Err e_not_stopped);
          if a.refcount > 0 then raise (Err e_in_use);
          ok (set t pg Afree)
      | (Athread _ | Al1 _ | Al2 _ | Adata _) as p -> (
          let asp = Option.get (owner_of p) in
          match get t asp with
          | Aaddrspace { st = Sstopped; _ } -> ok (release t pg asp)
          | _ -> raise (Err e_not_stopped))
    end
    else raise (Err e_invalid_arg)
  with Err e -> Done (t, e, 0)

let resolve t (p : pending) ~outcome =
  match get t p.th with
  | Athread th ->
      let th =
        match outcome with
        | `Exit | `Fault ->
            { th with entered = false; has_ctx = false; has_fault_ctx = false }
        | `Interrupted -> { th with entered = true; has_ctx = true }
      in
      set t p.th (Athread th)
  | pg -> raise (Stuck (Printf.sprintf "resolve: page %d is %s" p.th (pp_page pg)))

let allowed_outcome e =
  if e = e_success then Some `Exit
  else if e = e_interrupted then Some `Interrupted
  else if e = e_fault then Some `Fault
  else None
