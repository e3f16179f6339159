(* The OS substrate: allocator discipline, the monitor-call trace, and
   a property test driving the loader over randomly generated enclave
   images. *)

open Testlib
module Word = Komodo_machine.Word
module Alloc = Komodo_os.Alloc
module Smc = Komodo_core.Smc
module Abi = Komodo_core.Abi
module Pagedb = Komodo_core.Pagedb
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors
module Sha256 = Komodo_crypto.Sha256

(* -- Allocator ----------------------------------------------------------- *)

let test_alloc_discipline () =
  let a = Alloc.make ~npages:3 in
  Alcotest.(check int) "initial" 3 (Alloc.available a);
  let p1, a = Alloc.take_exn a in
  let p2, a = Alloc.take_exn a in
  let p3, a = Alloc.take_exn a in
  Alcotest.(check bool) "distinct pages" true (p1 <> p2 && p2 <> p3 && p1 <> p3);
  Alcotest.(check bool) "exhausted" true (Alloc.take a = None);
  let a = Alloc.put a p2 in
  Alcotest.(check int) "one back" 1 (Alloc.available a);
  Alcotest.check_raises "double free" (Invalid_argument "Alloc.put: double free")
    (fun () -> ignore (Alloc.put a p2))

(* -- Monitor-call trace --------------------------------------------------- *)

let test_monitor_trace () =
  let captured = ref [] in
  let reporter =
    {
      Logs.report =
        (fun _src _level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun msg ->
                  captured := msg :: !captured;
                  over ();
                  k ())
                fmt));
    }
  in
  let old_reporter = Logs.reporter () in
  Logs.set_reporter reporter;
  Logs.Src.set_level Smc.log_src (Some Logs.Debug);
  let os = boot () in
  let os, _, _ = Os.get_phys_pages os in
  let os, _ = Os.init_addrspace os ~addrspace:0 ~l1pt:1 in
  ignore os;
  Logs.Src.set_level Smc.log_src None;
  Logs.set_reporter old_reporter;
  let msgs = List.rev !captured in
  Alcotest.(check int) "two calls traced" 2 (List.length msgs);
  Alcotest.(check bool) "names the call" true
    (String.length (List.hd msgs) > 0
    && String.sub (List.hd msgs) 0 12 = "GetPhysPages");
  let contains needle m =
    let n = String.length needle and l = String.length m in
    let rec go i = i + n <= l && (String.sub m i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "records the result" true
    (List.for_all (contains "Success") msgs)

let test_call_names () =
  Alcotest.(check string) "enter" "Enter" (Abi.smc_name Abi.smc_enter);
  Alcotest.(check string) "map secure" "MapSecure" (Abi.smc_name Abi.smc_map_secure);
  Alcotest.(check string) "unknown" "Unknown(99)" (Abi.smc_name 99)

(* -- Random-image loader property ----------------------------------------- *)

let arb_image =
  let open QCheck.Gen in
  let page_contents = map (fun c -> String.make 4096 c) printable in
  let gen =
    (* Up to 5 data pages at distinct small VAs, 1-2 threads, 0-2
       spares, optional shared window. *)
    let* n_pages = int_range 1 5 in
    let* contents = list_repeat n_pages page_contents in
    let* perms = list_repeat n_pages (pair bool bool) in
    let* n_threads = int_range 1 2 in
    let* spares = int_bound 2 in
    let* shared = bool in
    return (contents, perms, n_threads, spares, shared)
  in
  QCheck.make
    ~print:(fun (c, _, t, s, sh) ->
      Printf.sprintf "<%d pages, %d threads, %d spares, shared=%b>" (List.length c) t s sh)
    gen

let build_image (contents, perms, n_threads, spares, shared) =
  let img = Image.empty ~name:"gen" in
  (* Data pages at 0x10000, 0x11000, ... (never executable so threads
     can't be confused; code page goes at 0). *)
  let img, _ =
    List.fold_left2
      (fun (img, i) c (w, _x) ->
        ( Image.add_secure_page img
            ~mapping:(Mapping.make ~va:(Word.of_int (0x10000 + (i * 0x1000))) ~w ~x:false)
            ~contents:c,
          i + 1 ))
      (img, 0) contents perms
  in
  let code = Uprog.to_page_images (Uprog.code_words Progs.add_args) in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img =
    if shared then
      Image.add_insecure_mapping img
        ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
        ~target:Os.shared_base
    else img
  in
  let img =
    List.fold_left
      (fun img _ -> Image.add_thread img ~entry:Word.zero)
      img
      (List.init n_threads (fun i -> i))
  in
  Image.with_spares img spares

let prop_loader_roundtrip =
  QCheck.Test.make ~name:"random images load, measure, run, and unload cleanly"
    ~count:40 arb_image (fun spec ->
      let img = build_image spec in
      let os = boot ~npages:64 () in
      let free0 = Alloc.available os.Os.alloc in
      match Loader.load os img with
      | Error _ -> false
      | Ok (os, h) ->
          (* Invariants hold; measurement prediction matches. *)
          wf os
          && (match Pagedb.get os.Os.mon.Monitor.pagedb h.Loader.addrspace with
             | Pagedb.Addrspace a ->
                 Komodo_core.Measure.digest a.Pagedb.measurement
                 = Some h.Loader.measurement
             | _ -> false)
          &&
          (* Every thread is runnable (the code page holds add_args). *)
          let os, ok =
            List.fold_left
              (fun (os, ok) th ->
                let os, e, v =
                  Os.enter os ~thread:th
                    ~args:(Word.of_int 2, Word.of_int 3, Word.of_int 4)
                in
                (os, ok && Errors.is_success e && Word.to_int v = 9))
              (os, true) h.Loader.threads
          in
          ok
          &&
          (* Unload restores every page. *)
          (match Loader.unload os h with
          | Ok os -> wf os && Alloc.available os.Os.alloc = free0
          | Error _ -> false))

let suite =
  [
    Alcotest.test_case "allocator discipline" `Quick test_alloc_discipline;
    Alcotest.test_case "monitor-call trace" `Quick test_monitor_trace;
    Alcotest.test_case "call names" `Quick test_call_names;
    Testlib.qcheck prop_loader_roundtrip;
  ]
