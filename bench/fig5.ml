(** Figure 5: notary performance, enclave vs native process.

    The paper measures the Ironclad-derived notary for input sizes from
    4 kB to 512 kB, showing that — because execution is dominated by
    hashing and signing — the enclave version performs equivalently to
    a native Linux process. We run the same sweep: the notary enclave
    through the full monitor path (Enter, document reads through the
    enclave page table, RSA sign, Exit) against the identical workload
    running as a plain process, both in simulated milliseconds at
    900 MHz. *)

module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module Cost = Komodo_machine.Cost
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Notary = Komodo_user.Notary

let sizes_kb = [ 4; 8; 16; 32; 64; 128; 256; 512 ]
let max_pages = 512 * 1024 / Ptable.page_size

(* A 512 kB insecure input window. *)
let notary_image = Image.notary ~input_pages:max_pages ()

type point = { kb : int; enclave_ms : float; native_ms : float }

let measure () =
  let os = Os.boot ~seed:500 ~npages:64 () in
  let os, h =
    match Loader.load os notary_image with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "fig5 notary load: %a" Loader.pp_error e)
  in
  let th = List.hd h.Loader.threads in
  (* Initialise (keygen) once, outside the measurement, as the paper
     does ("when first entered..."). *)
  let os, e, _ = Os.enter os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
  assert (Errors.is_success e);
  let baseline = Notary.baseline_create ~seed:500 in
  let point (os, acc) kb =
    let len = kb * 1024 in
    let document = String.init len (fun i -> Char.chr ((i * 131) land 0xFF)) in
    let os = Os.write_bytes os Os.document_base document in
    let c0 = Os.cycles os in
    let os, e, _ =
      Os.enter os ~thread:th
        ~args:(Word.of_int Notary.cmd_notarize, Notary.input_va, Word.of_int len)
    in
    assert (Errors.is_success e);
    let enclave_ms = Cost.cycles_to_ms (Os.cycles os - c0) in
    let _, native_cycles = Notary.baseline_notarize baseline document in
    let native_ms = Cost.cycles_to_ms native_cycles in
    (os, { kb; enclave_ms; native_ms } :: acc)
  in
  let _, points = List.fold_left point (os, []) sizes_kb in
  List.rev points

let run () =
  Report.print_header "Figure 5: notary performance (simulated ms at 900 MHz)";
  let points = measure () in
  Report.print_table ~json_name:"figure5_notary"
    ~columns:[ "Input (kB)"; "Komodo enclave"; "Linux process"; "Overhead" ]
    (List.map
       (fun p ->
         [
           string_of_int p.kb;
           Report.ms p.enclave_ms;
           Report.ms p.native_ms;
           Printf.sprintf "%.1f%%" (100. *. (p.enclave_ms -. p.native_ms) /. p.native_ms);
         ])
       points);
  (* The paper's claim: the two series coincide (compute-dominated). *)
  let worst =
    List.fold_left
      (fun w p -> Float.max w (Float.abs (p.enclave_ms -. p.native_ms) /. p.native_ms))
      0. points
  in
  Printf.printf
    "\nworst-case enclave overhead: %.2f%% (paper: 'performs equivalently')\n"
    (100. *. worst);
  (* ASCII rendition of the figure. *)
  Report.print_header "Figure 5 (series)";
  let scale = 60. /. List.fold_left (fun m p -> Float.max m p.enclave_ms) 1. points in
  List.iter
    (fun p ->
      Printf.printf "%4d kB | %s* %6.1f ms\n" p.kb
        (String.make (int_of_float (p.enclave_ms *. scale)) '#')
        p.enclave_ms)
    points
