(** Supervisor calls: the enclave-facing monitor API (Table 1, lower
    half).

    Invoked by the SVC instruction while an enclave executes; the call
    number is in the enclave's r0 with arguments in r1.., and results
    come back in r0 (error code) and r1.. — the handler then returns to
    the enclave, except for [Exit], which the Enter/Resume loop in
    {!Smc} intercepts. Attest passes its 32 bytes of data in r1-r8 and
    returns the MAC in r1-r8; Verify's 96 bytes of input are read
    through the enclave's own page table from a buffer in r1. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Exec = Komodo_machine.Exec
module Cost = Komodo_machine.Cost
module Ptable = Komodo_machine.Ptable
module Rng = Komodo_tz.Rng
module Sha256 = Komodo_crypto.Sha256

(** How a fault is described to the enclave's dispatcher (r0 of the
    upcall). The OS never sees these — it is told only [Fault]. *)
let fault_code = function
  | Exec.Translation -> Word.of_int 1
  | Exec.Permission -> Word.of_int 2
  | Exec.Alignment -> Word.of_int 3
  | Exec.Prefetch -> Word.of_int 4
  | Exec.Undef_insn -> Word.of_int 5

(** Read the enclave's register r[i]. *)
let ureg (t : Monitor.t) i = State.read_reg t.mach (Regs.R i)

let set_ureg (t : Monitor.t) i v =
  { t with Monitor.mach = State.write_reg t.mach (Regs.R i) v }

let set_results t err values =
  let t = set_ureg t 0 (Errors.to_word err) in
  List.fold_left (fun (t, i) v -> (set_ureg t i v, i + 1)) (t, 1) values |> fst

let emit_entry t ~call =
  let args = List.map (fun i -> Word.to_int (ureg t i)) [ 1; 2 ] in
  Monitor.emit t (Komodo_telemetry.Event.Svc_entry { call; name = Abi.svc_name call; args })

(* -- Individual calls ---------------------------------------------------
   Like the SMC handlers, each call is validate-then-commit: a pure
   validation prefix, then one atomic commit at which the fault
   injector's hook fires ([Monitor.phase]). Result registers are part
   of the return discipline, not enclave state, so setting them on an
   error path does not break atomicity. *)

(** Fire the commit-point injection hook, then run the commit [k]. The
    profiler's validate span ends here and the commit span opens. *)
let commit ~call t k =
  let t = Monitor.phase t (Monitor.Ph_commit { smc = false; call }) in
  Monitor.span_mark t "commit";
  k t

let get_random (t : Monitor.t) =
  (* A drained entropy source is a defined error, not a trap: the
     enclave learns the source failed and nothing else (fault model).
     The check repeats inside the commit because the injector may drain
     the source at the commit point itself. *)
  if Rng.exhausted t.Monitor.rng then
    (set_results t Errors.Entropy_exhausted [], Errors.Entropy_exhausted)
  else
    commit ~call:Abi.svc_get_random t @@ fun t ->
    if Rng.exhausted t.Monitor.rng then
      (set_results t Errors.Entropy_exhausted [], Errors.Entropy_exhausted)
    else
      let w, rng = Rng.next_word t.Monitor.rng in
      let t = Monitor.charge Cost.rng_word { t with Monitor.rng } in
      (set_results t Errors.Success [ w ], Errors.Success)

let attest (t : Monitor.t) ~cur_asp =
  match Pagedb.get t.Monitor.pagedb cur_asp with
  | Pagedb.Addrspace a -> (
      match Measure.digest a.Pagedb.measurement with
      | None -> (set_results t Errors.Not_final [], Errors.Not_final)
      | Some measurement ->
          commit ~call:Abi.svc_attest t @@ fun t ->
          Monitor.span_enter t "hash";
          let data =
            Sha256.digest_of_words (List.init 8 (fun i -> ureg t (i + 1)))
          in
          let mac = Attest.create ~key:t.Monitor.attest_key ~measurement ~data in
          let t = Monitor.charge Attest.mac_cycles t in
          Monitor.span_exit t;
          ( set_results t Errors.Success (Sha256.digest_words_of mac),
            Errors.Success ))
  | _ -> (set_results t Errors.Invalid_addrspace [], Errors.Invalid_addrspace)

(** Read [n] words from enclave virtual memory (through the live page
    table); [None] if any address is unmapped — the monitor validates
    rather than faulting. *)
let read_user_words (t : Monitor.t) va n =
  let rec go acc i =
    if i = n then Some (List.rev acc)
    else
      match Exec.Uview.load t.Monitor.mach (Word.add va (Word.of_int (4 * i))) with
      | Error _ -> None
      | Ok w -> go (w :: acc) (i + 1)
  in
  go [] 0

let verify (t : Monitor.t) =
  let buf = ureg t 1 in
  match read_user_words t buf 24 with
  | None -> (set_results t Errors.Invalid_arg [], Errors.Invalid_arg)
  | Some ws ->
      commit ~call:Abi.svc_verify t @@ fun t ->
      let take n l = List.filteri (fun i _ -> i < n) l
      and drop n l = List.filteri (fun i _ -> i >= n) l in
      let data = Sha256.digest_of_words (take 8 ws) in
      let measurement = Sha256.digest_of_words (take 8 (drop 8 ws)) in
      let mac = Sha256.digest_of_words (drop 16 ws) in
      Monitor.span_enter t "hash";
      let ok = Attest.verify ~key:t.Monitor.attest_key ~measurement ~data ~mac in
      let t = Monitor.charge (Attest.verify_cycles + (24 * Cost.mem_access)) t in
      Monitor.span_exit t;
      ( set_results t Errors.Success [ (if ok then Word.one else Word.zero) ],
        Errors.Success )

(** Shared validation for the dynamic-memory SVCs: argument page must be
    a page of the *current* address space with the expected type. *)
let own_page (t : Monitor.t) ~cur_asp w =
  match Monitor.valid_pagenr t w with
  | None -> Error Errors.Invalid_pageno
  | Some n -> (
      match Pagedb.get t.Monitor.pagedb n with
      | e when Pagedb.owner e = Some cur_asp -> Ok (n, e)
      | Pagedb.Free -> Error Errors.Invalid_pageno
      | _ -> Error Errors.Invalid_pageno)

let l1pt_of (t : Monitor.t) cur_asp =
  match Pagedb.get t.Monitor.pagedb cur_asp with
  | Pagedb.Addrspace a -> a.Pagedb.l1pt
  | _ -> invalid_arg "Svc: current addrspace vanished"

let init_l2ptable (t : Monitor.t) ~cur_asp =
  let spare = ureg t 1 and l1index = Word.to_int (ureg t 2) in
  let result =
    match own_page t ~cur_asp spare with
    | Error e -> Error e
    | Ok (n, Pagedb.SparePage _) ->
        if l1index < 0 || l1index >= Ptable.l1_entries then Error Errors.Invalid_mapping
        else begin
          let l1pt = l1pt_of t cur_asp in
          let l1e = Monitor.load_page_word t l1pt l1index in
          match Ptable.decode_l1e l1e with
          | Some _ -> Error Errors.Addr_in_use
          | None -> Ok (n, l1pt)
        end
    | Ok _ -> Error Errors.Page_in_use
  in
  match result with
  | Error e -> (set_results t e [], e)
  | Ok (n, l1pt) ->
      commit ~call:Abi.svc_init_l2ptable t @@ fun t ->
      let t = Monitor.zero_page t n in
      let t =
        {
          t with
          Monitor.pagedb =
            Pagedb.set t.Monitor.pagedb n (Pagedb.L2PTable { addrspace = cur_asp });
        }
      in
      let t = Monitor.install_l1e t ~l1pt ~l2pt:n ~i1:l1index in
      (set_results t Errors.Success [], Errors.Success)

let map_data (t : Monitor.t) ~cur_asp =
  let spare = ureg t 1 and mapping_w = ureg t 2 in
  let result =
    match Mapping.decode mapping_w with
    | None -> Error Errors.Invalid_mapping
    | Some mapping -> (
        match own_page t ~cur_asp spare with
        | Error e -> Error e
        | Ok (n, Pagedb.SparePage _) -> (
            let l1pt = l1pt_of t cur_asp in
            match Monitor.l2pt_for t ~l1pt mapping.Mapping.va with
            | None -> Error Errors.Invalid_mapping
            | Some l2pt -> (
                match Ptable.decode_l2e (Monitor.read_l2e t ~l2pt mapping.Mapping.va) with
                | Some _ -> Error Errors.Addr_in_use
                | None -> Ok (n, l2pt, mapping)))
        | Ok _ -> Error Errors.Page_in_use)
  in
  match result with
  | Error e -> (set_results t e [], e)
  | Ok (n, l2pt, mapping) ->
      commit ~call:Abi.svc_map_data t @@ fun t ->
      (* Zero-fill, retype, then publish the mapping. *)
      let t = Monitor.charge (Cost.smc_body_small * 5) t in
      let t = Monitor.zero_page t n in
      let t =
        {
          t with
          Monitor.pagedb =
            Pagedb.set t.Monitor.pagedb n (Pagedb.DataPage { addrspace = cur_asp });
        }
      in
      let pte =
        Ptable.make_l2e ~base:(Monitor.page_pa t n) ~ns:false mapping.Mapping.perms
      in
      let t = Monitor.write_l2e t ~l2pt mapping.Mapping.va pte in
      (set_results t Errors.Success [], Errors.Success)

let unmap_data (t : Monitor.t) ~cur_asp =
  let page = ureg t 1 and mapping_w = ureg t 2 in
  let result =
    match Mapping.decode mapping_w with
    | None -> Error Errors.Invalid_mapping
    | Some mapping -> (
        match own_page t ~cur_asp page with
        | Error e -> Error e
        | Ok (n, Pagedb.DataPage _) -> (
            let l1pt = l1pt_of t cur_asp in
            match Monitor.l2pt_for t ~l1pt mapping.Mapping.va with
            | None -> Error Errors.Invalid_mapping
            | Some l2pt -> (
                match Ptable.decode_l2e (Monitor.read_l2e t ~l2pt mapping.Mapping.va) with
                | Some (pa, false, _) when Word.equal pa (Monitor.page_pa t n) ->
                    Ok (n, l2pt, mapping)
                | _ -> Error Errors.Invalid_mapping))
        | Ok _ -> Error Errors.Invalid_pageno)
  in
  match result with
  | Error e -> (set_results t e [], e)
  | Ok (n, l2pt, mapping) ->
      commit ~call:Abi.svc_unmap_data t @@ fun t ->
      let t = Monitor.write_l2e t ~l2pt mapping.Mapping.va Word.zero in
      let t =
        {
          t with
          Monitor.pagedb =
            Pagedb.set t.Monitor.pagedb n (Pagedb.SparePage { addrspace = cur_asp });
        }
      in
      (set_results t Errors.Success [], Errors.Success)

let set_dispatcher (t : Monitor.t) ~cur_thread =
  let entry = ureg t 1 in
  match Pagedb.get t.Monitor.pagedb cur_thread with
  | Pagedb.Thread th ->
      if not (Word.ult entry Ptable.va_limit) then
        (set_results t Errors.Invalid_arg [], Errors.Invalid_arg)
      else begin
        commit ~call:Abi.svc_set_dispatcher t @@ fun t ->
        (* Entry 0 deregisters (reverting to exit-with-Fault). *)
        let dispatcher = if Word.equal entry Word.zero then None else Some entry in
        let db =
          Pagedb.set t.Monitor.pagedb cur_thread
            (Pagedb.Thread { th with Pagedb.dispatcher })
        in
        let t = Monitor.charge 24 { t with Monitor.pagedb = db } in
        (set_results t Errors.Success [], Errors.Success)
      end
  | _ -> (set_results t Errors.Invalid_thread [], Errors.Invalid_thread)

(** Dispatch a non-Exit SVC. Returns the updated monitor (with the
    enclave's result registers set) and the error code (for logging;
    the enclave sees it in r0). [Abi.svc_resume_faulted] is control flow,
    not a request, and is intercepted by the Enter/Resume loop. *)
let handle (t : Monitor.t) ~cur_asp ~cur_thread =
  let call = Word.to_int (ureg t 0) in
  let t = Monitor.charge Cost.svc_trap t in
  let traced = Monitor.telemetry_on t in
  let entry_cycles = Monitor.cycles t and db0 = t.Monitor.pagedb in
  if traced then emit_entry t ~call;
  let sdepth = Monitor.span_depth t in
  Monitor.span_enter t ("svc." ^ Abi.svc_name call);
  Monitor.span_enter t "validate";
  let t, err =
    if call = Abi.svc_get_random then get_random t
    else if call = Abi.svc_attest then attest t ~cur_asp
    else if call = Abi.svc_verify then verify t
    else if call = Abi.svc_init_l2ptable then init_l2ptable t ~cur_asp
    else if call = Abi.svc_map_data then map_data t ~cur_asp
    else if call = Abi.svc_unmap_data then unmap_data t ~cur_asp
    else if call = Abi.svc_set_dispatcher then set_dispatcher t ~cur_thread
    else (set_results t Errors.Invalid_arg [], Errors.Invalid_arg)
  in
  let t = Monitor.charge Cost.exception_return t in
  Monitor.span_exit_to t sdepth;
  if traced then begin
    List.iter
      (fun (page, from_type, to_type) ->
        Monitor.emit t
          (Komodo_telemetry.Event.Page_transition { page; from_type; to_type }))
      (Pagedb.diff_types db0 t.Monitor.pagedb);
    Monitor.emit t
      (Komodo_telemetry.Event.Svc_exit
         {
           call;
           name = Abi.svc_name call;
           err = Word.to_int (Errors.to_word err);
           err_name = Errors.show err;
           cycles = Monitor.cycles t - entry_cycles;
         })
  end;
  (t, err)
