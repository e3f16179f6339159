(** Table 1: API conformance sweep.

    Exercises every monitor call in Table 1 — all 12 SMCs and all 7
    SVCs — on their success paths, in one enclave lifecycle, asserting
    each returns Success. A living checklist that the implemented API
    surface is the paper's. *)

module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Os = Komodo_os.Os
module Errors = Komodo_core.Errors
module Mapping = Komodo_core.Mapping
module Uprog = Komodo_user.Uprog
module Abi = Komodo_core.Abi
open Uprog

let results : (string * bool) list ref = ref []
let note name ok = results := (name, ok) :: !results

(* An enclave program exercising every SVC: GetRandom, Attest (regs),
   Verify (buffer at 0x2000 — garbage, but the call succeeds and
   returns a verdict), InitL2PTable, MapData, UnmapData, then Exit. *)
let svc_storm spare : Insn.stmt list =
  [
    (* GetRandom *)
    Insn.I (Insn.Mov (r0, imm Abi.svc_get_random));
    Insn.I (Insn.Svc Word.zero);
    Insn.I (Insn.Mov (r10, Insn.Reg r0));
    (* Attest over the random word (r1 still holds it). *)
    Insn.I (Insn.Mov (r2, imm 0));
    Insn.I (Insn.Mov (r3, imm 0));
    Insn.I (Insn.Mov (r4, imm 0));
    Insn.I (Insn.Mov (r5, imm 0));
    Insn.I (Insn.Mov (r6, imm 0));
    Insn.I (Insn.Mov (r7, imm 0));
    Insn.I (Insn.Mov (r8, imm 0));
    Insn.I (Insn.Mov (r0, imm Abi.svc_attest));
    Insn.I (Insn.Svc Word.zero);
    Insn.I (Insn.Orr (r10, r10, Insn.Reg r0));
    (* Verify over the shared buffer at 0x2000. *)
    Insn.I (Insn.Mov (r1, imm 0x2000));
    Insn.I (Insn.Mov (r0, imm Abi.svc_verify));
    Insn.I (Insn.Svc Word.zero);
    Insn.I (Insn.Orr (r10, r10, Insn.Reg r0));
    (* InitL2PTable in slot 9 from our spare... no: spare is consumed by
       MapData below, so use it once. Map the spare at 0x3000. *)
    Insn.I (Insn.Mov (r1, imm spare));
    Insn.I (Insn.Mov (r2, imm 0x3003));
    Insn.I (Insn.Mov (r0, imm Abi.svc_map_data));
    Insn.I (Insn.Svc Word.zero);
    Insn.I (Insn.Orr (r10, r10, Insn.Reg r0));
    (* UnmapData again. *)
    Insn.I (Insn.Mov (r1, imm spare));
    Insn.I (Insn.Mov (r2, imm 0x3001));
    Insn.I (Insn.Mov (r0, imm Abi.svc_unmap_data));
    Insn.I (Insn.Svc Word.zero);
    Insn.I (Insn.Orr (r10, r10, Insn.Reg r0));
    (* InitL2PTable from the (again spare) page, slot 9. *)
    Insn.I (Insn.Mov (r1, imm spare));
    Insn.I (Insn.Mov (r2, imm 9));
    Insn.I (Insn.Mov (r0, imm Abi.svc_init_l2ptable));
    Insn.I (Insn.Svc Word.zero);
    Insn.I (Insn.Orr (r10, r10, Insn.Reg r0));
  ]
  @ exit_with r10

(* A second thread used for the Resume path. *)
let spinner = Komodo_user.Progs.spin_forever

let run () =
  Report.print_header "Table 1: API surface sweep (every SMC and SVC succeeds)";
  results := [];
  let os = Os.boot ~seed:0x7AB1E ~npages:64 () in
  let smc name (os, err) =
    note ("SMC " ^ name) (Errors.is_success err);
    os
  in
  let os, err, n = Os.get_phys_pages os in
  note "SMC GetPhysPages" (Errors.is_success err && n = 64);
  (* Build an enclave by hand so every call appears explicitly. *)
  let os = smc "InitAddrspace" (Os.init_addrspace os ~addrspace:0 ~l1pt:1) in
  let os = smc "InitL2PTable" (Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0) in
  (* Stage the code page and map it. *)
  let code_pages = Uprog.to_page_images (Uprog.code_words (svc_storm 8)) in
  let os = Os.write_bytes os Os.staging_base (List.hd code_pages) in
  let os =
    smc "MapSecure"
      (Os.map_secure os ~addrspace:0 ~data:3
         ~mapping:(Mapping.make ~va:Word.zero ~w:false ~x:true)
         ~content:Os.staging_base)
  in
  let os =
    smc "MapInsecure"
      (Os.map_insecure os ~addrspace:0
         ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
         ~target:Os.shared_base)
  in
  let os = smc "InitThread" (Os.init_thread os ~addrspace:0 ~thread:4 ~entry:Word.zero) in
  let os = smc "Finalise" (Os.finalise os ~addrspace:0) in
  let os = smc "AllocSpare" (Os.alloc_spare os ~addrspace:0 ~spare:8) in
  (* Seed the Verify buffer. *)
  let os = Os.write_bytes os Os.shared_base (String.make 96 '\x01') in
  (* Enter runs the SVC storm: every SVC must have returned 0 for the
     exit value to be 0. *)
  let os, err, v = Os.enter os ~thread:4 ~args:(Word.zero, Word.zero, Word.zero) in
  note "SMC Enter" (Errors.is_success err);
  note "SVC GetRandom+Attest+Verify+MapData+UnmapData+InitL2PTable+Exit"
    (Word.equal v Word.zero);
  (* Resume: build a spinner thread in a second enclave. *)
  let os = smc "InitAddrspace(2nd)" (Os.init_addrspace os ~addrspace:10 ~l1pt:11) in
  let os = smc "InitL2PTable(2nd)" (Os.init_l2ptable os ~addrspace:10 ~l2pt:12 ~l1index:0) in
  let spin_page = List.hd (Uprog.to_page_images (Uprog.code_words spinner)) in
  let os = Os.write_bytes os Os.staging_base spin_page in
  let os =
    smc "MapSecure(2nd)"
      (Os.map_secure os ~addrspace:10 ~data:13
         ~mapping:(Mapping.make ~va:Word.zero ~w:false ~x:true)
         ~content:Os.staging_base)
  in
  let os = smc "InitThread(2nd)" (Os.init_thread os ~addrspace:10 ~thread:14 ~entry:Word.zero) in
  let os = smc "Finalise(2nd)" (Os.finalise os ~addrspace:10) in
  let set_budget n (os : Os.t) =
    {
      os with
      Os.mon =
        {
          os.Os.mon with
          Komodo_core.Monitor.mach =
            { os.Os.mon.Komodo_core.Monitor.mach with Komodo_machine.State.irq_budget = Some n };
        };
    }
  in
  let os, err, _ = Os.enter (set_budget 30 os) ~thread:14 ~args:(Word.zero, Word.zero, Word.zero) in
  note "SMC Enter -> Interrupted (suspend)" (Errors.equal err Errors.Interrupted);
  let os, err, _ = Os.resume (set_budget 30 os) ~thread:14 in
  note "SMC Resume" (Errors.equal err Errors.Interrupted);
  let os = smc "Stop" (Os.stop os ~addrspace:10) in
  let os = smc "Remove" (Os.remove os ~page:13) in
  ignore os;
  let rows = List.rev !results in
  Report.print_table ~json_name:"table1_api"
    ~columns:[ "Call"; "Status" ]
    (List.map (fun (n, ok) -> [ n; (if ok then "ok" else "FAILED") ]) rows);
  if List.exists (fun (_, ok) -> not ok) rows then failwith "API sweep failed"
