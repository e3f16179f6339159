(** Secure monitor calls: the OS-facing API (Table 1, upper half) and
    the enclave-execution state machine of Figure 3.

    [handle] is the top level of the specification: it relates the
    machine state and PageDB just after an SMC exception to the states
    just before returning to the OS. Across every SMC the register
    discipline holds (non-volatile and banked registers preserved,
    non-return registers zeroed, insecure memory untouched), and Enter/
    Resume nest the whole user-execution/SVC loop inside a single SMC. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Psr = Komodo_machine.Psr
module Exec = Komodo_machine.Exec
module Cost = Komodo_machine.Cost
module Ptable = Komodo_machine.Ptable
module Armexn = Komodo_machine.Armexn
module Platform = Komodo_tz.Platform

(** Monitor call trace: enable with
    [Logs.Src.set_level Smc.log_src (Some Logs.Debug)]. Records every
    SMC with its arguments and result — the audit trail a deployment
    would hang off the secure world. *)
let log_src = Logs.Src.create "komodo.monitor" ~doc:"Komodo monitor call trace"

module Log = (val Logs.src_log log_src)

let ok retval t = (t, Errors.Success, retval)
let fail err t = (t, err, Word.zero)

(* -- Transactional discipline -------------------------------------------
   Every handler below is written in validate-then-commit shape: a pure
   validation prefix that only reads state and can only [fail], then a
   single [commit] performing every mutation (PageDB, secure memory,
   cycle charges). The commit point is also where the fault injector may
   act — [Monitor.phase] fires there — so the shape makes the paper's
   atomicity claim (§4: every call completes or leaves state untouched)
   checkable under injected faults: validation facts concern secure
   state the environment cannot touch, so they survive the hook. *)

(** Fire the commit-point injection hook, then run the commit [k] — the
    handler's single atomic mutation. The profiler's validate span ends
    here and the commit span opens. *)
let commit ~call t k =
  let t = Monitor.phase t (Monitor.Ph_commit { smc = true; call }) in
  Monitor.span_mark t "commit";
  k t

(* -- Construction calls ------------------------------------------------- *)

let get_phys_pages (t : Monitor.t) =
  commit ~call:Abi.smc_get_phys_pages t @@ fun t ->
  ok (Word.of_int t.Monitor.plat.Platform.npages) (Monitor.charge 10 t)

let init_addrspace (t : Monitor.t) =
  let as_w = Monitor.arg t 1 and l1_w = Monitor.arg t 2 in
  match (Monitor.free_page t as_w, Monitor.free_page t l1_w) with
  | Error e, _ | _, Error e -> fail e t
  | Ok as_pg, Ok l1_pg ->
      (* The two arguments must be distinct pages — the aliasing bug the
         paper found in its unverified prototype (§9.1). *)
      if as_pg = l1_pg then fail Errors.Page_in_use t
      else
        commit ~call:Abi.smc_init_addrspace t @@ fun t ->
        let t = Monitor.zero_page t l1_pg in
        let db = t.Monitor.pagedb in
        let db =
          Pagedb.set db as_pg
            (Pagedb.Addrspace
               {
                 l1pt = l1_pg;
                 refcount = 1;
                 state = Pagedb.Init;
                 measurement = Measure.initial;
               })
        in
        let db = Pagedb.set db l1_pg (Pagedb.L1PTable { addrspace = as_pg }) in
        ok Word.zero (Monitor.charge 24 { t with Monitor.pagedb = db })

let init_thread (t : Monitor.t) =
  let as_w = Monitor.arg t 1
  and th_w = Monitor.arg t 2
  and entry = Monitor.arg t 3 in
  match Monitor.addrspace_page t ~want:Pagedb.Init as_w with
  | Error e -> fail e t
  | Ok (as_pg, a) -> (
      match Monitor.free_page t th_w with
      | Error e -> fail e t
      | Ok th_pg ->
          commit ~call:Abi.smc_init_thread t @@ fun t ->
          let db =
            Pagedb.alloc t.Monitor.pagedb th_pg
              (Pagedb.Thread
                 {
                   addrspace = as_pg;
                   entry_point = entry;
                   entered = false;
                   ctx = None;
                   dispatcher = None;
                   fault_ctx = None;
                 })
          in
          Monitor.span_enter t "hash";
          let measurement = Measure.add_thread a.Pagedb.measurement ~entry_point:entry in
          let t = Monitor.charge (Measure.extend_cycles ~content_bytes:0) t in
          Monitor.span_exit t;
          let db =
            Pagedb.set db as_pg
              (Pagedb.Addrspace
                 {
                   a with
                   Pagedb.measurement;
                   refcount = a.Pagedb.refcount + 1;
                 })
          in
          let t = Monitor.charge 20 t in
          ok Word.zero { t with Monitor.pagedb = db })

let init_l2ptable (t : Monitor.t) =
  let as_w = Monitor.arg t 1
  and l2_w = Monitor.arg t 2
  and l1index = Word.to_int (Monitor.arg t 3) in
  match Monitor.addrspace_page t ~want:Pagedb.Init as_w with
  | Error e -> fail e t
  | Ok (as_pg, a) -> (
      match Monitor.free_page t l2_w with
      | Error e -> fail e t
      | Ok l2_pg ->
          if l1index < 0 || l1index >= Ptable.l1_entries then
            fail Errors.Invalid_mapping t
          else begin
            let l1pt = a.Pagedb.l1pt in
            match Ptable.decode_l1e (Monitor.load_page_word t l1pt l1index) with
            | Some _ -> fail Errors.Addr_in_use t
            | None ->
                commit ~call:Abi.smc_init_l2ptable t @@ fun t ->
                let t = Monitor.zero_page t l2_pg in
                let db =
                  Pagedb.alloc t.Monitor.pagedb l2_pg
                    (Pagedb.L2PTable { addrspace = as_pg })
                in
                let t = { t with Monitor.pagedb = db } in
                let t = Monitor.install_l1e t ~l1pt ~l2pt:l2_pg ~i1:l1index in
                ok Word.zero (Monitor.charge 20 t)
          end)

let alloc_spare (t : Monitor.t) =
  let as_w = Monitor.arg t 1 and sp_w = Monitor.arg t 2 in
  match Monitor.addrspace_page t as_w with
  | Error e -> fail e t
  | Ok (as_pg, a) -> (
      if Pagedb.equal_addrspace_state a.Pagedb.state Pagedb.Stopped then
        fail Errors.Not_final t
      else
        match Monitor.free_page t sp_w with
        | Error e -> fail e t
        | Ok sp_pg ->
            commit ~call:Abi.smc_alloc_spare t @@ fun t ->
            let db =
              Pagedb.alloc t.Monitor.pagedb sp_pg
                (Pagedb.SparePage { addrspace = as_pg })
            in
            ok Word.zero (Monitor.charge Cost.smc_body_small { t with Monitor.pagedb = db }))

let map_secure (t : Monitor.t) =
  let as_w = Monitor.arg t 1
  and data_w = Monitor.arg t 2
  and mapping_w = Monitor.arg t 3
  and content = Monitor.arg t 4 in
  match Monitor.addrspace_page t ~want:Pagedb.Init as_w with
  | Error e -> fail e t
  | Ok (as_pg, a) -> (
      match Monitor.free_page t data_w with
      | Error e -> fail e t
      | Ok data_pg -> (
          match Mapping.decode mapping_w with
          | None -> fail Errors.Invalid_mapping t
          | Some mapping -> (
              (* Initial contents come from insecure memory; the address
                 must be page-aligned and genuinely insecure — in
                 particular not the monitor's own direct-mapped image
                 (the validation the paper reports getting wrong before
                 verification, §9.1). [0] means zero-fill. *)
              let content_ok =
                Word.equal content Word.zero
                || (Ptable.page_aligned content
                   && Platform.is_valid_insecure t.Monitor.plat content)
              in
              if not content_ok then fail Errors.Invalid_arg t
              else
                (* [Bugs.Partial_map_secure] resurrects the naive handler
                   ordering: copy the contents in before the
                   mapping-slot checks, so a late failure returns an
                   error with secure memory already mutated. *)
                let buggy = t.Monitor.bug = Some Bugs.Partial_map_secure in
                let fill t = Monitor.fill_page_from_insecure t data_pg ~src:content in
                let t_err = if buggy then fill t else t in
                match Monitor.l2pt_for t ~l1pt:a.Pagedb.l1pt mapping.Mapping.va with
                | None -> fail Errors.Invalid_mapping t_err
                | Some l2pt -> (
                    match
                      Ptable.decode_l2e (Monitor.read_l2e t ~l2pt mapping.Mapping.va)
                    with
                    | Some _ -> fail Errors.Addr_in_use t_err
                    | None ->
                        commit ~call:Abi.smc_map_secure t @@ fun t ->
                        let t = fill t in
                        (* The measurement hash and its cycle charge sit
                           together inside one span so the profiler
                           attributes the extend cost to "hash". *)
                        Monitor.span_enter t "hash";
                        let measurement =
                          Measure.add_data_page_mem a.Pagedb.measurement ~mapping
                            ~mem:t.Monitor.mach.State.mem
                            ~pa:(Monitor.page_pa t data_pg)
                        in
                        let t =
                          Monitor.charge
                            (Measure.extend_cycles ~content_bytes:Ptable.page_size)
                            t
                        in
                        Monitor.span_exit t;
                        let db =
                          Pagedb.alloc t.Monitor.pagedb data_pg
                            (Pagedb.DataPage { addrspace = as_pg })
                        in
                        let db =
                          Pagedb.set db as_pg
                            (Pagedb.Addrspace
                               {
                                 a with
                                 Pagedb.measurement;
                                 refcount = a.Pagedb.refcount + 1;
                               })
                        in
                        let t = { t with Monitor.pagedb = db } in
                        let pte =
                          Ptable.make_l2e ~base:(Monitor.page_pa t data_pg) ~ns:false
                            mapping.Mapping.perms
                        in
                        let t = Monitor.write_l2e t ~l2pt mapping.Mapping.va pte in
                        ok Word.zero t))))

let map_insecure (t : Monitor.t) =
  let as_w = Monitor.arg t 1
  and mapping_w = Monitor.arg t 2
  and target = Monitor.arg t 3 in
  match Monitor.addrspace_page t ~want:Pagedb.Init as_w with
  | Error e -> fail e t
  | Ok (_, a) -> (
      match Mapping.decode mapping_w with
      | None -> fail Errors.Invalid_mapping t
      | Some mapping ->
          if mapping.Mapping.perms.Ptable.x then fail Errors.Invalid_mapping t
          else if
            not
              (Ptable.page_aligned target
              && Platform.is_valid_insecure t.Monitor.plat target)
          then fail Errors.Invalid_arg t
          else (
            match Monitor.l2pt_for t ~l1pt:a.Pagedb.l1pt mapping.Mapping.va with
            | None -> fail Errors.Invalid_mapping t
            | Some l2pt -> (
                match
                  Ptable.decode_l2e (Monitor.read_l2e t ~l2pt mapping.Mapping.va)
                with
                | Some _ -> fail Errors.Addr_in_use t
                | None ->
                    commit ~call:Abi.smc_map_insecure t @@ fun t ->
                    let pte =
                      Ptable.make_l2e ~base:target ~ns:true mapping.Mapping.perms
                    in
                    let t = Monitor.write_l2e t ~l2pt mapping.Mapping.va pte in
                    ok Word.zero (Monitor.charge 18 t))))

let finalise (t : Monitor.t) =
  let as_w = Monitor.arg t 1 in
  match Monitor.addrspace_page t ~want:Pagedb.Init as_w with
  | Error e -> fail e t
  | Ok (as_pg, a) ->
      commit ~call:Abi.smc_finalise t @@ fun t ->
      Monitor.span_enter t "hash";
      let measurement = Measure.finalise a.Pagedb.measurement in
      let t = Monitor.charge Measure.finalise_cycles t in
      Monitor.span_exit t;
      let db =
        Pagedb.set t.Monitor.pagedb as_pg
          (Pagedb.Addrspace { a with Pagedb.state = Pagedb.Final; measurement })
      in
      ok Word.zero { t with Monitor.pagedb = db }

let stop (t : Monitor.t) =
  let as_w = Monitor.arg t 1 in
  match Monitor.addrspace_page t as_w with
  | Error e -> fail e t
  | Ok (as_pg, a) ->
      if Pagedb.equal_addrspace_state a.Pagedb.state Pagedb.Init then
        fail Errors.Not_final t
      else begin
        commit ~call:Abi.smc_stop t @@ fun t ->
        let measurement =
          match a.Pagedb.state with
          | Pagedb.Init -> assert false
          | Pagedb.Final | Pagedb.Stopped -> a.Pagedb.measurement
        in
        let db =
          Pagedb.set t.Monitor.pagedb as_pg
            (Pagedb.Addrspace { a with Pagedb.state = Pagedb.Stopped; measurement })
        in
        ok Word.zero (Monitor.charge 12 { t with Monitor.pagedb = db })
      end

let remove (t : Monitor.t) =
  let pg_w = Monitor.arg t 1 in
  match Monitor.valid_pagenr t pg_w with
  | None -> fail Errors.Invalid_pageno t
  | Some pg -> (
      let db = t.Monitor.pagedb in
      let stopped asp =
        match Pagedb.get db asp with
        | Pagedb.Addrspace { state = Pagedb.Stopped; _ } -> true
        | _ -> false
      in
      match Pagedb.get db pg with
      | Pagedb.Free -> fail Errors.Invalid_pageno t
      | Pagedb.SparePage _ ->
          (* Spare pages may be reclaimed from any enclave at any time;
             this is the OS-visible face of dynamic allocation (§4). *)
          commit ~call:Abi.smc_remove t @@ fun t ->
          ok Word.zero
            (Monitor.charge 14 { t with Monitor.pagedb = Pagedb.release t.Monitor.pagedb pg })
      | Pagedb.Addrspace a ->
          if not (Pagedb.equal_addrspace_state a.Pagedb.state Pagedb.Stopped) then
            fail Errors.Not_stopped t
          else if a.Pagedb.refcount > 0 then
            (* [Bugs.Partial_remove] resurrects the naive ordering:
               release the page before the refcount check, so the
               [In_use] error returns with the PageDB already mutated. *)
            if t.Monitor.bug = Some Bugs.Partial_remove then
              fail Errors.In_use
                { t with Monitor.pagedb = Pagedb.set db pg Pagedb.Free }
            else fail Errors.In_use t
          else
            commit ~call:Abi.smc_remove t @@ fun t ->
            ok Word.zero
              (Monitor.charge 14
                 { t with Monitor.pagedb = Pagedb.set t.Monitor.pagedb pg Pagedb.Free })
      | (Pagedb.Thread _ | Pagedb.L1PTable _ | Pagedb.L2PTable _ | Pagedb.DataPage _)
        as e ->
          let asp = Option.get (Pagedb.owner e) in
          if not (stopped asp) then fail Errors.Not_stopped t
          else
            commit ~call:Abi.smc_remove t @@ fun t ->
            ok Word.zero
              (Monitor.charge 14
                 { t with Monitor.pagedb = Pagedb.release t.Monitor.pagedb pg }))

(* -- Enclave execution (Enter / Resume) -------------------------------- *)

let exec_event_to_exn = function
  | Exec.Ev_svc _ -> Armexn.Svc
  | Exec.Ev_irq -> Armexn.Irq
  | Exec.Ev_fiq -> Armexn.Fiq
  | Exec.Ev_fault Exec.Prefetch -> Armexn.Prefetch_abort
  | Exec.Ev_fault Exec.Undef_insn -> Armexn.Undefined_instr
  | Exec.Ev_fault _ -> Armexn.Data_abort

let exec_event_kind = function
  | Exec.Ev_svc _ -> "svc"
  | Exec.Ev_irq -> "irq"
  | Exec.Ev_fiq -> "fiq"
  | Exec.Ev_fault f -> "fault:" ^ String.lowercase_ascii (Exec.show_fault f)

(** Trace the intercepted control-flow SVCs (Exit, ResumeFaulted) that
    never reach {!Svc.handle}. *)
let emit_intercepted_svc t ~call ~err ~entry_cycles =
  Monitor.emit t
    (Komodo_telemetry.Event.Svc_exit
       {
         call;
         name = Abi.svc_name call;
         err = Word.to_int (Errors.to_word err);
         err_name = Errors.show err;
         cycles = Monitor.cycles t - entry_cycles;
       })

(** Fetch the thread argument for Enter/Resume, validating that it is a
    thread of a finalised enclave. *)
let thread_page (t : Monitor.t) w =
  match Monitor.valid_pagenr t w with
  | None -> Error Errors.Invalid_thread
  | Some n -> (
      match Pagedb.get t.Monitor.pagedb n with
      | Pagedb.Thread th -> (
          match Pagedb.get t.Monitor.pagedb th.Pagedb.addrspace with
          | Pagedb.Addrspace { state = Pagedb.Final; _ } as a -> (
              match a with
              | Pagedb.Addrspace a -> Ok (n, th, a)
              | _ -> assert false)
          | Pagedb.Addrspace _ -> Error Errors.Not_final
          | _ -> Error Errors.Invalid_thread)
      | _ -> Error Errors.Invalid_thread)

(** Capture the current user context (registers, code image, PC, CPSR). *)
let capture_ctx (t : Monitor.t) ~image =
  let mach = t.Monitor.mach in
  {
    Pagedb.regs = Regs.user_visible mach.State.regs;
    image;
    pc = mach.State.upc;
    cpsr = Psr.encode mach.State.cpsr;
  }

(** Save the suspended thread's user context into its PageDB entry. *)
let suspend (t : Monitor.t) th_pg (th : _) ~image =
  let ctx = capture_ctx t ~image in
  let db =
    Pagedb.set t.Monitor.pagedb th_pg
      (Pagedb.Thread { th with Pagedb.entered = true; ctx = Some ctx })
  in
  let t = Monitor.charge (Cost.reg_save 17) t in
  { t with Monitor.pagedb = db }

(** Restore a captured user context into the machine. *)
let restore_ctx (t : Monitor.t) (ctx : Pagedb.thread_ctx) =
  let regs = Regs.set_user_visible t.Monitor.mach.State.regs ctx.Pagedb.regs in
  let cpsr =
    match Psr.decode ctx.Pagedb.cpsr with
    | Some p -> p
    | None -> Psr.user_entry (* saved by the monitor; always decodable *)
  in
  let mach = { t.Monitor.mach with State.regs; cpsr; upc = ctx.Pagedb.pc } in
  { t with Monitor.mach = mach }

(** The enter/resume state machine: repeatedly drop to user mode and
    handle the exception that comes back, until the enclave exits, is
    interrupted, or faults (Figure 3). *)
let rec execution_loop ~(exec : Uexec.t) (t : Monitor.t) ~th_pg ~th ~entry_va ~start_pc
    ~iter =
  (* Watchdog: a runaway SVC/dispatcher loop is surfaced to the OS as a
     fault rather than hanging the monitor. *)
  if iter > 10_000 then begin
    let db =
      Pagedb.set t.Monitor.pagedb th_pg
        (Pagedb.Thread { th with Pagedb.entered = false; ctx = None; fault_ctx = None })
    in
    ({ t with Monitor.pagedb = db }, Errors.Fault, Word.zero)
  end
  else begin
  (* MOVS PC, LR: leave monitor mode for user mode. *)
  let t = Monitor.charge Cost.exception_return t in
  let user_psr = { (Psr.user_entry) with Psr.n = t.Monitor.mach.State.cpsr.Psr.n;
                   z = t.Monitor.mach.State.cpsr.Psr.z;
                   c = t.Monitor.mach.State.cpsr.Psr.c;
                   v = t.Monitor.mach.State.cpsr.Psr.v } in
  let mach = { t.Monitor.mach with State.cpsr = user_psr } in
  let t = { t with Monitor.mach = mach } in
  Monitor.span_enter t "exec";
  let { Uexec.mach; event } = exec.Uexec.run t.Monitor.mach ~entry_va ~start_pc ~iter in
  (* The exception traps back to privileged mode, banking the user PC. *)
  let mach = State.take_exception mach (exec_event_to_exn event) ~return_pc:mach.State.upc in
  let t = { t with Monitor.mach = mach } in
  Monitor.span_exit t;
  let traced = Monitor.telemetry_on t in
  if traced then
    Monitor.emit t (Komodo_telemetry.Event.Exception { kind = exec_event_kind event });
  match event with
  | Exec.Ev_svc _ ->
      let call = Word.to_int (State.read_reg mach (Regs.R 0)) in
      if call = Abi.svc_exit then begin
        (* Exit: registers are not saved; the thread may be re-entered. *)
        let entry_cycles = Monitor.cycles t in
        if traced then Svc.emit_entry t ~call;
        let retval = State.read_reg mach (Regs.R 1) in
        let db =
          Pagedb.set t.Monitor.pagedb th_pg
            (Pagedb.Thread { th with Pagedb.entered = false; ctx = None; fault_ctx = None })
        in
        let banked =
          if t.Monitor.optimised then Cost.banked_save_opt else Cost.banked_save_full
        in
        let t = Monitor.charge (Cost.exit_path + banked) t in
        if traced then emit_intercepted_svc t ~call ~err:Errors.Success ~entry_cycles;
        ({ t with Monitor.pagedb = db }, Errors.Success, retval)
      end
      else if call = Abi.svc_resume_faulted then begin
        (* Dispatcher done: restore the faulting context and retry the
           interrupted access. *)
        let entry_cycles = Monitor.cycles t in
        if traced then Svc.emit_entry t ~call;
        match th.Pagedb.fault_ctx with
        | Some fctx ->
            let th = { th with Pagedb.fault_ctx = None } in
            let db = Pagedb.set t.Monitor.pagedb th_pg (Pagedb.Thread th) in
            let t = restore_ctx { t with Monitor.pagedb = db } fctx in
            let t = Monitor.charge (Cost.reg_save 17 + Cost.svc_trap) t in
            if traced then emit_intercepted_svc t ~call ~err:Errors.Success ~entry_cycles;
            execution_loop ~exec t ~th_pg ~th ~entry_va:fctx.Pagedb.image
              ~start_pc:(Word.to_int fctx.Pagedb.pc) ~iter:(iter + 1)
        | None ->
            (* Nothing to resume: report the error and continue. *)
            let mach =
              State.write_reg t.Monitor.mach (Regs.R 0)
                (Errors.to_word Errors.Not_entered)
            in
            let t = { t with Monitor.mach = mach } in
            if traced then emit_intercepted_svc t ~call ~err:Errors.Not_entered ~entry_cycles;
            execution_loop ~exec t ~th_pg ~th ~entry_va
              ~start_pc:(Word.to_int t.Monitor.mach.State.upc) ~iter:(iter + 1)
      end
      else begin
        let t, _err = Svc.handle t ~cur_asp:th.Pagedb.addrspace ~cur_thread:th_pg in
        (* The SVC may have changed this thread's PageDB entry
           (SetDispatcher); reload it before continuing. *)
        let th =
          match Pagedb.get t.Monitor.pagedb th_pg with
          | Pagedb.Thread th -> th
          | _ -> th
        in
        let start_pc = Word.to_int t.Monitor.mach.State.upc in
        execution_loop ~exec t ~th_pg ~th ~entry_va ~start_pc ~iter:(iter + 1)
      end
  | Exec.Ev_irq | Exec.Ev_fiq ->
      (* Save context and report the interrupt to the OS; the thread is
         marked entered so it cannot be re-entered, only resumed. *)
      let t = suspend t th_pg th ~image:entry_va in
      (t, Errors.Interrupted, Word.zero)
  | Exec.Ev_fault f -> (
      match (th.Pagedb.dispatcher, th.Pagedb.fault_ctx) with
      | Some dispatcher_va, None ->
          (* Dispatcher interface: upcall into the enclave's own fault
             handler with the fault class and address — which never
             reach the OS. The faulting context is parked for
             ResumeFaulted. *)
          let fctx = capture_ctx t ~image:entry_va in
          let th = { th with Pagedb.fault_ctx = Some fctx } in
          let db = Pagedb.set t.Monitor.pagedb th_pg (Pagedb.Thread th) in
          let mach = t.Monitor.mach in
          let mach = State.write_reg mach (Regs.R 0) (Svc.fault_code f) in
          let mach = State.write_reg mach (Regs.R 1) mach.State.far in
          let t =
            Monitor.charge (Cost.reg_save 17 + Cost.svc_trap)
              { t with Monitor.pagedb = db; mach }
          in
          execution_loop ~exec t ~th_pg ~th ~entry_va:dispatcher_va ~start_pc:0
            ~iter:(iter + 1)
      | _ ->
          (* No dispatcher (or a double fault inside the dispatcher):
             the thread exits with an error code but no other
             information, to avoid side-channel leaks; the OS cannot
             observe *which* address faulted, and cannot induce the
             fault (§3.1, §4). *)
          let db =
            Pagedb.set t.Monitor.pagedb th_pg
              (Pagedb.Thread
                 { th with Pagedb.entered = false; ctx = None; fault_ctx = None })
          in
          ({ t with Monitor.pagedb = db }, Errors.Fault, Word.zero))
  end

(** Load the enclave's translation context: page-table base register and
    (unless provably unnecessary) a TLB flush. The specification demands
    a consistent TLB and a matching table at user entry (§5.2). *)
let load_enclave_mmu (t : Monitor.t) (a : _) =
  let target = Monitor.page_pa t a.Pagedb.l1pt in
  let mach = t.Monitor.mach in
  let mach =
    if
      (* Optimised path (§8.1): repeated invocation of the same enclave
         can skip the TTBR reload — and hence, when no page table was
         touched meanwhile, the TLB flush. Proven-safe only because a
         matching TTBR plus a consistent TLB already satisfy the entry
         specification. *)
      t.Monitor.optimised
      && Word.equal mach.State.ttbr0_s target
    then mach
    else State.charge Cost.ttbr_load (State.set_ttbr0_s mach target)
  in
  let mach =
    if t.Monitor.optimised && Komodo_machine.Tlb.is_consistent mach.State.tlb then mach
    else State.flush_tlb mach
  in
  { t with Monitor.mach = mach }

let enter ~exec (t : Monitor.t) =
  let th_w = Monitor.arg t 1 in
  let a1 = Monitor.arg t 2 and a2 = Monitor.arg t 3 and a3 = Monitor.arg t 4 in
  match thread_page t th_w with
  | Error e -> fail e t
  | Ok (th_pg, th, a) ->
      if th.Pagedb.entered then fail Errors.Already_entered t
      else begin
        commit ~call:Abi.smc_enter t @@ fun t ->
        if Monitor.telemetry_on t then
          Monitor.emit t
            (Komodo_telemetry.Event.Enclave_lifecycle
               { addrspace = th.Pagedb.addrspace; stage = Komodo_telemetry.Event.Ls_enter });
        let t = load_enclave_mmu t a in
        (* Fresh entry: argument registers set, everything else zeroed. *)
        let regs = Regs.clear_user_visible t.Monitor.mach.State.regs in
        let regs = Regs.write regs ~mode:Mode.User (Regs.R 0) a1 in
        let regs = Regs.write regs ~mode:Mode.User (Regs.R 1) a2 in
        let regs = Regs.write regs ~mode:Mode.User (Regs.R 2) a3 in
        (* Flags start clear on a fresh entry (no OS residue). *)
        let mach =
          {
            t.Monitor.mach with
            State.regs;
            cpsr = Psr.user_entry;
            upc = Word.zero;
            scr_ns = false;
          }
        in
        let banked =
          if t.Monitor.optimised then Cost.banked_save_opt else Cost.banked_save_full
        in
        let t =
          Monitor.charge
            (Cost.enter_validate + banked + Cost.reg_save 17)
            { t with Monitor.mach = mach }
        in
        execution_loop ~exec t ~th_pg ~th ~entry_va:th.Pagedb.entry_point ~start_pc:0
          ~iter:0
      end

let resume ~exec (t : Monitor.t) =
  let th_w = Monitor.arg t 1 in
  match thread_page t th_w with
  | Error e -> fail e t
  | Ok (th_pg, th, a) -> (
      match (th.Pagedb.entered, th.Pagedb.ctx) with
      | false, _ | _, None -> fail Errors.Not_entered t
      | true, Some ctx ->
          commit ~call:Abi.smc_resume t @@ fun t ->
          if Monitor.telemetry_on t then
            Monitor.emit t
              (Komodo_telemetry.Event.Enclave_lifecycle
                 { addrspace = th.Pagedb.addrspace; stage = Komodo_telemetry.Event.Ls_resume });
          let t = load_enclave_mmu t a in
          let t = restore_ctx t ctx in
          let t = { t with Monitor.mach = { t.Monitor.mach with State.scr_ns = false } } in
          let banked =
            if t.Monitor.optimised then Cost.banked_save_opt else Cost.banked_save_full
          in
          let t =
            Monitor.charge
              (Cost.enter_validate + banked + Cost.reg_save 17 + Cost.resume_ctx)
              t
          in
          (* The thread is live again: clear the suspended context. *)
          let th' = { th with Pagedb.entered = false; ctx = None } in
          let db = Pagedb.set t.Monitor.pagedb th_pg (Pagedb.Thread th') in
          let t = { t with Monitor.pagedb = db } in
          execution_loop ~exec t ~th_pg ~th:th' ~entry_va:ctx.Pagedb.image
            ~start_pc:(Word.to_int ctx.Pagedb.pc) ~iter:0)

(* -- Top level ----------------------------------------------------------- *)

let dispatch ~exec (t : Monitor.t) =
  let call = Word.to_int (Monitor.arg t 0) in
  if call = Abi.smc_get_phys_pages then get_phys_pages t
  else if call = Abi.smc_init_addrspace then init_addrspace t
  else if call = Abi.smc_init_thread then init_thread t
  else if call = Abi.smc_init_l2ptable then init_l2ptable t
  else if call = Abi.smc_alloc_spare then alloc_spare t
  else if call = Abi.smc_map_secure then map_secure t
  else if call = Abi.smc_map_insecure then map_insecure t
  else if call = Abi.smc_finalise then finalise t
  else if call = Abi.smc_enter then enter ~exec t
  else if call = Abi.smc_resume then resume ~exec t
  else if call = Abi.smc_stop then stop t
  else if call = Abi.smc_remove then remove t
  else fail Errors.Invalid_arg t

(** Handle an SMC: the machine must be in monitor mode with the OS's
    call in r0-r4 (i.e. just after the SMC exception). Returns with the
    machine back in the OS's mode and world, r0/r1 holding the result,
    and every other OS register preserved. *)
let handle ?(exec = Uexec.concrete ()) (t : Monitor.t) =
  if not (Mode.equal (State.mode t.Monitor.mach) Mode.Monitor) then
    invalid_arg "Smc.handle: not in monitor mode";
  let t, saved = Monitor.save_os_context t in
  let t = { t with Monitor.mach = { t.Monitor.mach with State.scr_ns = false } } in
  let call = Word.to_int (Monitor.arg t 0) in
  let args = List.init Abi.smc_nargs (fun i -> Monitor.arg t (i + 1)) in
  let traced = Monitor.telemetry_on t in
  let entry_cycles = Monitor.cycles t and db0 = t.Monitor.pagedb in
  if traced then
    Monitor.emit t
      (Komodo_telemetry.Event.Smc_entry
         { call; name = Abi.smc_name call; args = List.map Word.to_int args });
  (* Profiling: the whole handler is one span; validation runs until
     the handler's [commit] marks the transition. Depth is snapshotted
     so error returns that skip the commit still unwind cleanly. *)
  let sdepth = Monitor.span_depth t in
  Monitor.span_enter t ("smc." ^ Abi.smc_name call);
  Monitor.span_enter t "validate";
  let t, err, retval = dispatch ~exec t in
  Log.debug (fun m ->
      m "%s(%s) -> %s, %a" (Abi.smc_name call)
        (String.concat ", " (List.map Word.show args))
        (Errors.show err) Word.pp retval);
  (* Whatever exception handler ran last (Figure 3's state machine ends
     in SVC/IRQ/abort mode after enclave execution), control flows back
     to the SMC handler's return path in monitor mode. *)
  let t =
    {
      t with
      Monitor.mach =
        { t.Monitor.mach with State.cpsr = Psr.with_mode t.Monitor.mach.State.cpsr Mode.Monitor };
    }
  in
  let t = Monitor.restore_os_context t saved ~err ~retval in
  let t = { t with Monitor.mach = { t.Monitor.mach with State.scr_ns = true } } in
  let mach, _pc = State.exception_return t.Monitor.mach in
  let t = { t with Monitor.mach = mach } in
  Monitor.span_exit_to t sdepth;
  if traced then begin
    (* Page retypings at SMC granularity; inside Enter/Resume the SVC
       handler has already reported its own, so skip the outer diff. *)
    if call <> Abi.smc_enter && call <> Abi.smc_resume then
      List.iter
        (fun (page, from_type, to_type) ->
          Monitor.emit t
            (Komodo_telemetry.Event.Page_transition { page; from_type; to_type }))
        (Pagedb.diff_types db0 t.Monitor.pagedb);
    (* Lifecycle milestones of the construction/teardown calls; Enter
       and Resume emit theirs inline, before the SVC loop runs. *)
    if Errors.is_success err then begin
      let lifecycle stage addrspace =
        Monitor.emit t
          (Komodo_telemetry.Event.Enclave_lifecycle { addrspace; stage })
      in
      let arg1 = Word.to_int (List.hd args) in
      if call = Abi.smc_init_addrspace then lifecycle Komodo_telemetry.Event.Ls_init arg1
      else if call = Abi.smc_finalise then lifecycle Komodo_telemetry.Event.Ls_finalise arg1
      else if call = Abi.smc_stop then lifecycle Komodo_telemetry.Event.Ls_stop arg1
      else if call = Abi.smc_remove then
        match Pagedb.get db0 arg1 with
        | Pagedb.Addrspace _ -> lifecycle Komodo_telemetry.Event.Ls_remove arg1
        | _ -> ()
    end;
    Monitor.emit t
      (Komodo_telemetry.Event.Smc_exit
         {
           call;
           name = Abi.smc_name call;
           err = Word.to_int (Errors.to_word err);
           err_name = Errors.show err;
           retval = Word.to_int retval;
           cycles = Monitor.cycles t - entry_cycles;
         })
  end;
  (t, err, retval)

(** Convenience wrapper for OS-side callers: from normal world, place
    the call in the argument registers, trap, handle, and return. *)
let invoke ?exec (t : Monitor.t) ~call ~args =
  if List.length args > Abi.smc_nargs then
    invalid_arg (Printf.sprintf "Smc.invoke: at most %d arguments" Abi.smc_nargs);
  let mach = t.Monitor.mach in
  if Mode.equal_world mach.State.world Mode.Secure then
    invalid_arg "Smc.invoke: SMCs come from the normal world";
  let mach = State.write_reg mach (Regs.R 0) (Word.of_int call) in
  let mach, _ =
    List.fold_left
      (fun (m, i) v -> (State.write_reg m (Regs.R i) v, i + 1))
      (mach, 1) args
  in
  (* Zero unused argument registers so results are reproducible. *)
  let mach =
    List.fold_left
      (fun m i -> State.write_reg m (Regs.R i) Word.zero)
      mach
      (List.init (4 - List.length args) (fun k -> k + 1 + List.length args))
  in
  let mach = State.take_exception mach Armexn.Smc ~return_pc:(Word.of_int 0xDEAD) in
  handle ?exec { t with Monitor.mach }
