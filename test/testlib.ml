(* Shared helpers for the monitor-level test suites. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Insn = Komodo_machine.Insn
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Mapping = Komodo_core.Mapping
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs

let err = Alcotest.testable Errors.pp Errors.equal
let check_err = Alcotest.check err

let boot ?(seed = 0x7E57) ?(npages = 32) () = Os.boot ~seed ~npages ()

(** Well-formedness of the current PageDB against memory — checked after
    nearly every operation in these suites, mirroring the paper's
    invariant-preservation proofs. *)
let wf (os : Os.t) =
  Pagedb.wf os.Os.mon.Monitor.plat os.Os.mon.Monitor.mach.State.mem
    os.Os.mon.Monitor.pagedb

let check_wf name os =
  let violations =
    Pagedb.check os.Os.mon.Monitor.plat os.Os.mon.Monitor.mach.State.mem
      os.Os.mon.Monitor.pagedb
  in
  Alcotest.(check (list string))
    (name ^ ": PageDB invariants")
    []
    (List.map (Format.asprintf "%a" Pagedb.pp_violation) violations)

(** Load a one-code-page enclave running [prog]. *)
let load_prog ?(name = "t") ?(spares = 0) ?(shared = false) os prog =
  let code = Uprog.to_page_images (Uprog.code_words prog) in
  let img = Image.empty ~name in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img =
    if shared then
      Image.add_insecure_mapping img
        ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
        ~target:Os.shared_base
    else img
  in
  let img = Image.add_thread img ~entry:Word.zero in
  let img = Image.with_spares img spares in
  match Loader.load os img with
  | Ok r -> r
  | Error e -> Alcotest.failf "load: %a" Loader.pp_error e

(** A fully built minimal enclave constructed call-by-call (no loader),
    so tests can interpose at any stage. Pages: 0 = addrspace, 1 = l1pt,
    2 = l2pt, 3 = code page, 4 = thread. *)
let build_manual ?(entry = Word.zero) ?(finalise = true) os =
  let step name (os, e) =
    check_err name Errors.Success e;
    os
  in
  let os = step "InitAddrspace" (Os.init_addrspace os ~addrspace:0 ~l1pt:1) in
  let os = step "InitL2PTable" (Os.init_l2ptable os ~addrspace:0 ~l2pt:2 ~l1index:0) in
  let code = List.hd (Uprog.to_page_images (Uprog.code_words Progs.add_args)) in
  let os = Os.write_bytes os Os.staging_base code in
  let os =
    step "MapSecure"
      (Os.map_secure os ~addrspace:0 ~data:3
         ~mapping:(Mapping.make ~va:Word.zero ~w:false ~x:true)
         ~content:Os.staging_base)
  in
  let os = step "InitThread" (Os.init_thread os ~addrspace:0 ~thread:4 ~entry) in
  if finalise then step "Finalise" (Os.finalise os ~addrspace:0) else os

let set_irq_budget n (os : Os.t) =
  {
    os with
    Os.mon =
      {
        os.Os.mon with
        Monitor.mach = { os.Os.mon.Monitor.mach with State.irq_budget = Some n };
      };
  }

let clear_irq_budget (os : Os.t) =
  {
    os with
    Os.mon =
      {
        os.Os.mon with
        Monitor.mach = { os.Os.mon.Monitor.mach with State.irq_budget = None };
      };
  }

let enter0 os ~thread = Os.enter os ~thread ~args:(Word.zero, Word.zero, Word.zero)

(* Data files (the golden corpus, committed traces) are copied beside
   the test executable by the [deps] of the test stanza; find them there,
   so a suite reads them from any working directory. *)
let data_file name = Filename.concat (Filename.dirname Sys.executable_name) name

let data_lines name =
  In_channel.with_open_text (data_file name) (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with Some l -> go (l :: acc) | None -> List.rev acc
      in
      go [])

(* Reproducible property tests: every qcheck case runs from one seed,
   taken from QCHECK_SEED when set (rerun a failure exactly) and chosen
   randomly otherwise — in which case the failing case names the seed to
   rerun with. Use this instead of [QCheck_alcotest.to_alcotest]. *)
let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> n
        | None -> failwith "QCHECK_SEED must be an integer")
    | None ->
        Random.self_init ();
        Random.int 0x3FFFFFFF)

let qcheck cell =
  let seed = Lazy.force qcheck_seed in
  let name, speed, f =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) cell
  in
  ( name,
    speed,
    fun () ->
      try f ()
      with e ->
        Printf.eprintf "\nqcheck: %S failed; reproduce with QCHECK_SEED=%d\n%!" name
          seed;
        raise e )
