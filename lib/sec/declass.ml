(** Declassification (§6.2): checking the released channels — and only
    those — carry information.

    Komodo's noninterference is relaxed by four delimited-release
    channels: (i) the type of exception ending enclave execution,
    (ii) the Exit return value (and the fact an exit happened),
    (iii) which spare pages the enclave has allocated (the OS sees this
    because Remove fails on them), and (iv) which data pages it has
    freed. Crucially, the OS cannot tell *how* an allocated spare is
    being used (data vs page table) — the side channel SGXv2 has and
    Komodo deliberately closed (§4).

    Each check here drives the real monitor and reports whether the
    channel behaves as specified. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Ptable = Komodo_machine.Ptable
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors
module Mapping = Komodo_core.Mapping
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Insn = Komodo_machine.Insn
module Abi = Komodo_core.Abi

type check_result = Ok_channel | Broken of string

let load_prog ?(spares = 0) os name prog =
  let code = Uprog.to_page_images (Uprog.code_words prog) in
  let img = Image.empty ~name in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img = Image.add_thread img ~entry:Word.zero in
  let img = Image.with_spares img spares in
  match Loader.load os img with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "Declass load %s: %a" name Loader.pp_error e)

(** Channel (i)/(ii): exit value and exception type are released —
    different enclave behaviours are distinguishable exactly there. *)
let exit_value_released () =
  let os = Os.boot ~seed:42 ~npages:32 () in
  let os, h = load_prog os "adder" Progs.add_args in
  let th = List.hd h.Loader.threads in
  let os, e1, v1 = Os.enter os ~thread:th ~args:(Word.of_int 1, Word.of_int 2, Word.zero) in
  let _os, e2, v2 = Os.enter os ~thread:th ~args:(Word.of_int 5, Word.of_int 6, Word.zero) in
  if
    Errors.is_success e1 && Errors.is_success e2
    && Word.to_int v1 = 3 && Word.to_int v2 = 11
  then Ok_channel
  else Broken "exit values not faithfully released"

let exception_type_released () =
  let os = Os.boot ~seed:42 ~npages:32 () in
  let os, h1 = load_prog os "faulter" Progs.fault_unmapped in
  let os, h2 = load_prog os "undef" Progs.fault_undefined in
  let os, e1, _ = Os.enter os ~thread:(List.hd h1.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero) in
  let _os, e2, _ = Os.enter os ~thread:(List.hd h2.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero) in
  (* Both fault classes collapse onto the single Fault code: the OS
     learns that an exception happened (and, via Interrupted, which of
     the two *classes* it was) but nothing finer. *)
  if Errors.equal e1 Errors.Fault && Errors.equal e2 Errors.Fault then Ok_channel
  else Broken "fault classes not released as the single Fault code"

(** Channel (iii): the OS can infer spare allocation, because Remove of
    a consumed spare fails. *)
let spare_allocation_released () =
  let os = Os.boot ~seed:42 ~npages:32 () in
  let os, h = load_prog ~spares:1 os "dyn" Progs.map_and_use_spare in
  let spare = List.hd h.Loader.spares in
  let th = List.hd h.Loader.threads in
  (* Before the enclave consumes it, the spare is removable — probe on a
     copy of the state. *)
  let _probe, err_before = Os.remove os ~page:spare in
  let os, err_run, v =
    Os.enter os ~thread:th
      ~args:(Word.of_int spare, Word.of_int 0x3000, Word.zero)
  in
  let _os, err_after = Os.remove os ~page:spare in
  if not (Errors.is_success err_before) then
    Broken "unconsumed spare page not removable"
  else if not (Errors.is_success err_run && Word.to_int v = 0xBEEF) then
    Broken "dynamic-memory enclave failed"
  else if Errors.is_success err_after then
    Broken "consumed spare page still removable (channel under-releases)"
  else Ok_channel

(** The closed channel: whether a spare became a data page or a page
    table is *not* observable. Two enclaves consume their spare
    differently; everything the OS can see must coincide. *)
let spare_use_not_released () =
  (* Enclave A: spare -> data page (MapData). *)
  let prog_data = Progs.map_and_use_spare in
  (* Enclave B: spare -> second-level page table (InitL2PTable). *)
  let prog_pt =
    [
      Insn.I (Insn.Mov (Uprog.r1, Insn.Reg Uprog.r0)) (* spare page nr *);
      Insn.I (Insn.Mov (Uprog.r2, Insn.Imm (Word.of_int 7))) (* free slot *);
      Insn.I (Insn.Mov (Uprog.r0, Insn.Imm (Word.of_int Abi.svc_init_l2ptable)));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (Uprog.r6, Insn.Imm (Word.of_int 0xBEEF)));
    ]
    @ Uprog.exit_with Uprog.r6
  in
  let observe prog =
    let os = Os.boot ~seed:42 ~npages:32 () in
    let os, h = load_prog ~spares:1 os "dyn" prog in
    let spare = List.hd h.Loader.spares in
    let os, err, v =
      Os.enter os ~thread:(List.hd h.Loader.threads)
        ~args:(Word.of_int spare, Word.of_int 0x3000, Word.zero)
    in
    (* Everything the OS can subsequently observe about the spare: the
       result of trying to reclaim it, and of re-granting it. *)
    let _, remove_err = Os.remove os ~page:spare in
    let _, regrant_err = Os.alloc_spare os ~addrspace:h.Loader.addrspace ~spare in
    (err, v, remove_err, regrant_err)
  in
  let e1, v1, r1, g1 = observe prog_data in
  let e2, v2, r2, g2 = observe prog_pt in
  if not (Errors.is_success e1 && Errors.is_success e2) then
    Broken "dynamic enclaves failed to run"
  else if Word.to_int v1 <> 0xBEEF || Word.to_int v2 <> 0xBEEF then
    Broken "enclaves did not complete their allocation"
  else if Errors.equal r1 r2 && Errors.equal g1 g2 then Ok_channel
  else
    Broken
      (Printf.sprintf
         "OS distinguishes spare usage: remove %s/%s, regrant %s/%s"
         (Errors.show r1) (Errors.show r2) (Errors.show g1) (Errors.show g2))

(** Channel (iv): freed data pages are observable (UnmapData turns them
    back into removable spares). *)
let freed_pages_released () =
  let prog =
    (* Map the spare at the VA in r1, then unmap it again. *)
    [
      Insn.I (Insn.Mov (Uprog.r12, Insn.Reg Uprog.r1)) (* va *);
      Insn.I (Insn.Mov (Uprog.r11, Insn.Reg Uprog.r0)) (* spare nr *);
      Insn.I (Insn.Mov (Uprog.r1, Insn.Reg Uprog.r11));
      Insn.I (Insn.Orr (Uprog.r2, Uprog.r12, Insn.Imm (Word.of_int 0x3)));
      Insn.I (Insn.Mov (Uprog.r0, Insn.Imm (Word.of_int Abi.svc_map_data)));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (Uprog.r1, Insn.Reg Uprog.r11));
      Insn.I (Insn.Orr (Uprog.r2, Uprog.r12, Insn.Imm (Word.of_int 0x1)));
      Insn.I (Insn.Mov (Uprog.r0, Insn.Imm (Word.of_int Abi.svc_unmap_data)));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (Uprog.r6, Insn.Imm (Word.of_int 0))) ;
    ]
    @ Uprog.exit_with Uprog.r6
  in
  let os = Os.boot ~seed:42 ~npages:32 () in
  let os, h = load_prog ~spares:1 os "dyn" prog in
  let spare = List.hd h.Loader.spares in
  let os, err, _ =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int spare, Word.of_int 0x3000, Word.zero)
  in
  if not (Errors.is_success err) then Broken "map/unmap enclave failed"
  else begin
    (* After unmapping, the page is a spare again: removable. *)
    let _os, err = Os.remove os ~page:spare in
    if Errors.is_success err then Ok_channel
    else Broken "freed page not reclaimable (channel missing)"
  end

let all =
  [
    ("exit-value-released", exit_value_released);
    ("exception-type-released", exception_type_released);
    ("spare-allocation-released", spare_allocation_released);
    ("spare-use-not-released", spare_use_not_released);
    ("freed-pages-released", freed_pages_released);
  ]
