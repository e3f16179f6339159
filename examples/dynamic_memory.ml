(* Dynamic memory management (paper §4 "Dynamic allocation"; SGXv2
   comparison).

   The OS grants an enclave spare pages at any time (AllocSpare); they
   become usable only when the enclave itself maps them (MapData /
   InitL2PTable SVCs), and the enclave can free data pages back into
   spares (UnmapData) for the OS to reclaim (Remove). The OS can tell
   *that* a spare was consumed — Remove fails — but not *how*; contrast
   SGXv2, where the OS chooses type, address and permissions of every
   dynamic page.

   Run with: dune exec examples/dynamic_memory.exe *)

module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Abi = Komodo_core.Abi
open Uprog

(* An enclave that: maps its spare page at the VA in r1, writes a value,
   reads it back, unmaps the page again, and exits with the value. *)
let grow_then_shrink : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r12, reg r1)) (* va *);
    Insn.I (Insn.Mov (r11, reg r0)) (* spare page nr *);
    (* MapData(spare, va | RW) *)
    Insn.I (Insn.Mov (r1, reg r11));
    Insn.I (Insn.Orr (r2, r12, imm 0x3));
    Insn.I (Insn.Mov (r0, imm Abi.svc_map_data));
    Insn.I (Insn.Svc Word.zero);
    (* use the fresh page *)
    Insn.I (Insn.Mov (r5, imm 0xD47A));
    Insn.I (Insn.Str (r5, r12, imm 0));
    Insn.I (Insn.Ldr (r6, r12, imm 0));
    (* UnmapData(page, va | R) *)
    Insn.I (Insn.Mov (r1, reg r11));
    Insn.I (Insn.Orr (r2, r12, imm 0x1));
    Insn.I (Insn.Mov (r0, imm Abi.svc_unmap_data));
    Insn.I (Insn.Svc Word.zero);
  ]
  @ exit_with r6

let () =
  let os = Os.boot ~seed:7 ~npages:48 () in
  let code = Uprog.to_page_images (Uprog.code_words grow_then_shrink) in
  let image =
    Image.empty ~name:"dynamic"
    |> fun img ->
    Image.add_blob img ~va:Word.zero ~w:false ~x:true code |> fun img ->
    Image.add_thread img ~entry:Word.zero |> fun img -> Image.with_spares img 1
  in
  let os, enclave =
    match Loader.load os image with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "load: %a" Loader.pp_error e)
  in
  let spare = List.hd enclave.Loader.spares in
  let thread = List.hd enclave.Loader.threads in
  Printf.printf "granted spare page %d to the enclave\n" spare;

  (* The enclave maps, uses, and frees the page in one run. *)
  let os, err, v =
    Os.enter os ~thread ~args:(Word.of_int spare, Word.of_int 0x5000, Word.zero)
  in
  Printf.printf "enclave grow/use/shrink -> %s, value %#x\n" (Errors.show err)
    (Word.to_int v);
  assert (Errors.is_success err && Word.to_int v = 0xD47A);

  (* Because the enclave freed it, the OS can reclaim the spare. *)
  let os, err = Os.remove os ~page:spare in
  Printf.printf "OS reclaims the spare: %s\n" (Errors.show err);
  assert (Errors.is_success err);

  (* The measurement never changed: dynamic pages are unmeasured. *)
  Printf.printf "measurement unchanged by dynamic allocation: %b\n"
    (match
       Komodo_core.Pagedb.get os.Os.mon.Komodo_core.Monitor.pagedb
         enclave.Loader.addrspace
     with
    | Komodo_core.Pagedb.Addrspace a ->
        Komodo_core.Measure.digest a.Komodo_core.Pagedb.measurement
        = Some enclave.Loader.measurement
    | _ -> false);

  (* SGXv2 contrast: there the OS dictates every dynamic page's type,
     address and permissions via EAUG. *)
  let sgx = Komodo_sgx.Lifecycle.make ~epc_size:8 in
  let sgx =
    match Komodo_sgx.Lifecycle.ecreate sgx ~secs:0 with Ok t -> t | Error _ -> assert false
  in
  let sgx =
    match Komodo_sgx.Lifecycle.einit sgx ~secs:0 with Ok t -> t | Error _ -> assert false
  in
  (match Komodo_sgx.Lifecycle.eaug sgx ~secs:0 ~index:3 ~va:(Word.of_int 0x5000) with
  | Ok _ ->
      print_endline
        "SGXv2 EAUG: OS chose the page, its address and its permissions \
         (the side channel Komodo closes)"
  | Error _ -> assert false);
  print_endline "dynamic memory demo: OK"
