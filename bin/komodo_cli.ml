(* komodo: command-line driver for the Komodo model.

   Subcommands:
     run       boot the platform and run a named demo enclave
     trace     run an enclave through its full lifecycle, emitting a
               JSONL telemetry trace and replaying it against the spec
     attest    run an enclave and print/check its attestation
     inspect   boot, load, and dump the PageDB and memory layout
     notary    drive the notary enclave over a document file
     verify    check the noninterference harness at a chosen scale
     explore   bounded exhaustive model check of the monitor lifecycle
     vault     sealed-storage fault campaigns over an adversarial block store
     serve     attestation-as-a-service over recycled enclave pools
     profile   span-profile a fixed-seed campaign (tree, quantiles, folded)
     bench     compare fresh BENCH_*.json against a committed baseline

   Examples:
     komodo run --program sum --arg 100
     komodo trace --program sum --arg 100 --trace-out t.jsonl --metrics
     komodo notary --document README.md
     komodo verify --seeds 10 --ops 100
     komodo inspect *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Ptable = Komodo_machine.Ptable
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Notary = Komodo_user.Notary
module Sha256 = Komodo_crypto.Sha256
module Sink = Komodo_telemetry.Sink
module Metrics = Komodo_telemetry.Metrics
module Json = Komodo_telemetry.Json
module Span = Komodo_telemetry.Span
module Hist = Komodo_telemetry.Hist
module Campaign = Komodo_campaign.Campaign
module Progress = Komodo_campaign.Progress
module Drive = Komodo_fault.Drive
module Diff = Komodo_spec.Diff
module Trace_check = Komodo_spec.Trace_check
open Cmdliner

let programs =
  [
    ("add", (Progs.add_args, "add the three entry arguments"));
    ("sum", (Progs.sum_to_n, "sum the integers 1..arg1"));
    ("random", (Progs.random_word, "fetch one word from the monitor RNG"));
    ("attest", (Progs.attest_zero, "attest to 32 zero bytes"));
    ("fault", (Progs.fault_unmapped, "dereference an unmapped address"));
    ("spin", (Progs.spin_forever, "loop until interrupted"));
  ]

let seed_arg =
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc:"Boot-time RNG seed.")

let npages_arg =
  Arg.(value & opt int 64 & info [ "pages" ] ~docv:"N" ~doc:"Secure pages reserved at boot.")

(* -v / --verbosity (from logs.cli): the global level also drives the
   monitor's SMC call-trace source, so `-v -v` surfaces it without code
   changes. *)
let verbosity = Logs_cli.level ()

(* A usage error (bad flag, unreadable or malformed input) prints one
   "komodo <cmd>: <reason>" line and exits 2, before anything boots. *)
let usage_error cmd msg =
  Printf.eprintf "komodo %s: %s\n" cmd msg;
  exit 2

(* An input or output file the CLI cannot open is a usage error naming
   the path once (a [Sys_error] message usually starts with it). *)
let file_error cmd path e =
  let prefix = path ^ ": " in
  usage_error cmd (if String.starts_with ~prefix e then e else prefix ^ e)

(* Every file the CLI writes is opened here, before the run it reports. *)
let open_output cmd path = try open_out path with Sys_error e -> file_error cmd path e

(* Fill and close a file [open_output] opened, noting it on stderr. *)
let write_output path oc text =
  output_string oc text;
  close_out oc;
  Printf.eprintf "[wrote %s]\n%!" path

let non_negative cmd what n =
  if n < 0 then usage_error cmd (Printf.sprintf "%s must be non-negative, got %d" what n)

(* A campaign of no trials checks nothing, so it may not pass. *)
let positive cmd what n =
  if n <= 0 then usage_error cmd (Printf.sprintf "%s must be positive, got %d" what n)

(* Exit 2 unless an [npages]-page platform can load [imgs] side by side. *)
let check_fits cmd ~why ~npages imgs =
  let need = List.fold_left (fun a img -> a + Image.pages_needed img) 0 imgs in
  Result.iter_error (usage_error cmd) (Diff.check_npages ~min:need ~why npages)

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level;
  Logs.Src.set_level Komodo_core.Smc.log_src level

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a JSONL telemetry trace of every monitor crossing to $(docv) ('-' for stdout).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry metrics registry (call counts, error counts, cycle histograms) as JSON on exit.")

(* Build the monitor sink for the common --trace-out/--metrics pair.
   Returns the sink, the registry when --metrics was given, and a
   [finish] closing the trace channel and printing the metrics dump. *)
let telemetry_setup cmd ~trace_out ~metrics =
  let reg = if metrics then Some (Metrics.create ()) else None in
  let oc = Option.map (function "-" -> stdout | path -> open_output cmd path) trace_out in
  let sinks =
    (match oc with Some oc -> [ Sink.jsonl oc ] | None -> [])
    @ (match reg with Some reg -> [ Metrics.sink reg ] | None -> [])
  in
  let finish () =
    (match oc with
    | Some oc when oc == stdout -> flush stdout
    | Some oc -> close_out oc
    | None -> ());
    match reg with
    | Some reg ->
        (* Keep stdout clean JSONL when the trace itself goes there. *)
        let chan = if trace_out = Some "-" then stderr else stdout in
        output_string chan (Json.to_string (Metrics.dump reg));
        output_char chan '\n';
        flush chan
    | None -> ()
  in
  (Sink.fanout sinks, reg, finish)

let simple_image ?(spares = 0) prog =
  let code = Uprog.to_page_images (Uprog.code_words prog) in
  let img = Image.empty ~name:"cli" in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img = Image.add_thread img ~entry:Word.zero in
  Image.with_spares img spares

let load os img =
  match Loader.load os img with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "load failed: %a" Loader.pp_error e)

(* -- run -------------------------------------------------------------- *)

let program_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (n, (p, _)) -> (n, p)) programs)) Progs.add_args
    & info [ "program"; "p" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Demo program to run (%s)."
             (String.concat ", " (List.map fst programs))))

let args_arg =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"Entry argument (up to 3).")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "irq-budget" ] ~docv:"STEPS"
        ~doc:
          "Interrupt each crossing after this many user steps (positive), and resume \
           until the crossings add up to the interpreter's fuel watchdog.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "file"; "f" ] ~docv:"PROG.kasm"
        ~doc:"Assemble and run a .kasm program instead of a built-in demo.")

let spares_arg =
  Arg.(
    value & opt int 0
    & info [ "spares" ] ~docv:"N"
        ~doc:
          "Grant N spare pages to the enclave; their page numbers are \
           appended to the entry arguments (a1 = first spare, ...).")

(* An input file (a .kasm program, a document) read whole; one that
   cannot be read, such as a directory, is a usage error. *)
let read_input cmd path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> file_error cmd path e

(* A .kasm file that does not assemble is a usage error. *)
let read_kasm cmd path =
  match Komodo_user.Kasm.parse (read_input cmd path) with
  | Ok prog -> prog
  | Error e -> usage_error cmd (Format.asprintf "%s: %a" path Komodo_user.Kasm.pp_error e)

(* The run/trace enclave: the demo or .kasm program with its spares,
   checked against the page budget and IRQ budget before boot. *)
let program_image cmd ~npages ~file ~spares ~budget prog =
  (* A zero budget interrupts every crossing before its first step, so
     the thread could never run; a negative one keeps its own message. *)
  Option.iter (fun b -> non_negative cmd "irq-budget" b; positive cmd "irq-budget" b) budget;
  non_negative cmd "spares" spares;
  let prog = Option.fold ~none:prog ~some:(read_kasm cmd) file in
  match simple_image ~spares prog with
  | exception Invalid_argument e -> usage_error cmd e
  | img ->
      check_fits cmd ~why:"the enclave and its spares" ~npages [ img ];
      img

let run_cmd =
  let run level seed npages prog args budget file spares trace_out metrics =
    setup_logs level;
    let img = program_image "run" ~npages ~file ~spares ~budget prog in
    let sink, _reg, finish = telemetry_setup "run" ~trace_out ~metrics in
    let os = Os.boot ~seed ~npages ~sink () in
    let os, h = load os img in
    let th = List.hd h.Loader.threads in
    (* Spare page numbers prepend the argument list so .kasm programs
       that manage dynamic memory can find them in r0... *)
    let args = List.map (fun s -> Word.of_int s) h.Loader.spares
               @ List.map Word.of_int args in
    if h.Loader.spares <> [] then
      Printf.printf "spares granted: %s\n"
        (String.concat ", " (List.map string_of_int h.Loader.spares));
    let nth n = try List.nth args n with _ -> Word.zero in
    let c0 = Os.cycles os in
    let os, err, v =
      match budget with
      | None -> Os.enter os ~thread:th ~args:(nth 0, nth 1, nth 2)
      | Some b -> Os.run_thread ~budget:b os ~thread:th ~args:(nth 0, nth 1, nth 2)
    in
    Printf.printf "result: %s, value = %d (0x%x)\n" (Errors.show err) (Word.to_int v)
      (Word.to_int v);
    Printf.printf "cycles: %d (%.3f ms at 900 MHz)\n" (Os.cycles os - c0)
      (Komodo_machine.Cost.cycles_to_ms (Os.cycles os - c0));
    finish ();
    if Errors.is_success err || Errors.equal err Errors.Fault then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Boot the platform and run a demo enclave")
    Term.(
      const run $ verbosity $ seed_arg $ npages_arg $ program_arg $ args_arg $ budget_arg
      $ file_arg $ spares_arg $ trace_out_arg $ metrics_arg)

(* -- trace ------------------------------------------------------------- *)

let trace_cmd =
  let pretty =
    Arg.(
      value & flag
      & info [ "pretty" ] ~doc:"Also pretty-print each event to stderr as it happens.")
  in
  let run level seed npages prog args budget file spares trace_out metrics pretty =
    setup_logs level;
    let img = program_image "trace" ~npages ~file ~spares ~budget prog in
    (* The trace defaults to stdout so `komodo trace -p sum` is useful
       bare; --trace-out FILE redirects it. *)
    let trace_out = Some (Option.value trace_out ~default:"-") in
    let sink, reg, finish = telemetry_setup "trace" ~trace_out ~metrics in
    (* Keep a copy of the stream in memory for the spec replay, and —
       when metrics are on — count retired user instructions via the
       machine layer's probe. *)
    let collect_sink, collected = Sink.collect () in
    let exec =
      match reg with
      | None -> Komodo_user.Verifier.executor ()
      | Some reg ->
          Komodo_user.Verifier.executor
            ~probe:(fun ~steps -> Metrics.add_count reg "user_instructions" steps)
            ()
    in
    let sinks = [ sink; collect_sink ] in
    let sinks = if pretty then Sink.console Format.err_formatter :: sinks else sinks in
    let os = Os.boot ~seed ~npages ~sink:(Sink.fanout sinks) ~exec () in
    let os, h = load os img in
    let th = List.hd h.Loader.threads in
    let args =
      List.map (fun s -> Word.of_int s) h.Loader.spares @ List.map Word.of_int args
    in
    let nth n = try List.nth args n with _ -> Word.zero in
    let os, err, v =
      Os.run_thread ?budget os ~thread:th ~args:(nth 0, nth 1, nth 2)
    in
    Printf.eprintf "result: %s, value = %d (0x%x)\n" (Errors.show err) (Word.to_int v)
      (Word.to_int v);
    (* Full Figure 3 arc: stop the enclave and reclaim every page, so
       the trace ends init -> ... -> enter -> exit -> stop -> remove. *)
    let _os, terr = Os.teardown os ~addrspace:h.Loader.addrspace in
    finish ();
    let events = collected () in
    let violations =
      match Trace_check.check ~npages events with
      | Error e -> [ e ]
      | Ok r -> List.map (fun (i, m) -> Printf.sprintf "event %d: %s" i m) r.Trace_check.violations
    in
    List.iter (Printf.eprintf "audit: %s\n") violations;
    if violations = [] then
      Printf.eprintf "audit: trace orderly (%d events)\n" (List.length events);
    (* Distinct exit codes so CI can gate on the audit specifically:
       0 clean, 1 enclave/teardown error, 3 the spec replay rejected it. *)
    if violations <> [] then 3
    else if Errors.is_success err && Errors.is_success terr then 0
    else 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an enclave through its full lifecycle (init, finalise, enter, stop, remove), \
          emitting a JSONL telemetry trace and replaying it against the abstract spec. \
          Exits 0 on a clean run, 1 on an enclave error, 3 when the spec replay rejects \
          the trace.")
    Term.(
      const run $ verbosity $ seed_arg $ npages_arg $ program_arg $ args_arg $ budget_arg
      $ file_arg $ spares_arg $ trace_out_arg $ metrics_arg $ pretty)

(* -- attest ----------------------------------------------------------- *)

let attest_cmd =
  let run level seed npages =
    setup_logs level;
    let img = simple_image Progs.attest_zero in
    check_fits "attest" ~why:"the attesting enclave" ~npages [ img ];
    let os = Os.boot ~seed ~npages () in
    let os, h = load os img in
    let os, err, v = Os.enter os ~thread:(List.hd h.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero) in
    Printf.printf "enclave measurement: %s\n" (Sha256.to_hex h.Loader.measurement);
    Printf.printf "enclave ran: %s; first MAC word: 0x%08x\n" (Errors.show err) (Word.to_int v);
    (* Recompute with the boot secret to check. *)
    let data = String.make 32 '\000' in
    let mac =
      Komodo_core.Attest.create ~key:os.Os.mon.Monitor.attest_key
        ~measurement:h.Loader.measurement ~data
    in
    let expected = Word.to_int (List.hd (Sha256.digest_words_of mac)) in
    Printf.printf "attestation %s (expected 0x%08x)\n"
      (if expected = Word.to_int v then "VALID" else "INVALID")
      expected;
    if expected = Word.to_int v then 0 else 1
  in
  Cmd.v
    (Cmd.info "attest" ~doc:"Run an attesting enclave and check its MAC against the boot secret")
    Term.(const run $ verbosity $ seed_arg $ npages_arg)

(* -- inspect ----------------------------------------------------------- *)

let inspect_cmd =
  let run level seed npages =
    setup_logs level;
    let add = simple_image Progs.add_args and sum = simple_image Progs.sum_to_n in
    check_fits "inspect" ~why:"the two demo enclaves" ~npages [ add; sum ];
    let os = Os.boot ~seed ~npages () in
    let os, _ = load os add in
    let os, h2 = load os sum in
    Printf.printf "platform: %d secure pages at %s; monitor image at %s\n" npages
      (Word.show Komodo_tz.Layout.secure_region_base)
      (Word.show Komodo_tz.Layout.monitor_image_base);
    Printf.printf "attestation key: %s...\n"
      (String.sub (Sha256.to_hex os.Os.mon.Monitor.attest_key) 0 16);
    print_endline "PageDB:";
    Format.printf "%a@." Pagedb.pp os.Os.mon.Monitor.pagedb;
    Printf.printf "second enclave measurement: %s\n" (Sha256.to_hex h2.Loader.measurement);
    let wf =
      Pagedb.wf os.Os.mon.Monitor.plat os.Os.mon.Monitor.mach.State.mem
        os.Os.mon.Monitor.pagedb
    in
    Printf.printf "PageDB well-formed: %b\n" wf;
    if wf then 0 else 1
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Dump the PageDB and platform layout of a loaded system")
    Term.(const run $ verbosity $ seed_arg $ npages_arg)

(* -- notary ------------------------------------------------------------ *)

let notary_cmd =
  let document =
    Arg.(
      value
      & opt (some file) None
      & info [ "document"; "d" ] ~docv:"FILE" ~doc:"File to notarise (default: a demo string).")
  in
  let run level seed npages document =
    setup_logs level;
    let doc =
      match document with
      | Some path ->
          let s = read_input "notary" path in
          String.sub s 0 (min (String.length s) (60 * Ptable.page_size))
      | None -> "komodo notary demo document"
    in
    let img = Image.notary ~input_pages:64 () in
    check_fits "notary" ~why:"the notary enclave" ~npages [ img ];
    let os = Os.boot ~seed ~npages () in
    let os, h = load os img in
    let th = List.hd h.Loader.threads in
    let os, err, _ = Os.enter os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
    assert (Errors.is_success err);
    let padded = doc ^ String.make ((4 - (String.length doc mod 4)) mod 4) '\000' in
    let os = Os.write_bytes os Os.document_base padded in
    let os, err, stamp =
      Os.enter os ~thread:th
        ~args:(Word.of_int Notary.cmd_notarize, Notary.input_va, Word.of_int (String.length padded))
    in
    if not (Errors.is_success err) then begin
      Printf.printf "notarise failed: %s\n" (Errors.show err);
      1
    end
    else begin
      let signature = Os.read_bytes os Os.shared_base 128 in
      Printf.printf "document: %d bytes\n" (String.length doc);
      Printf.printf "counter stamp: %d\n" (Word.to_int stamp);
      Printf.printf "signature: %s...\n" (String.sub (Sha256.to_hex signature) 0 32);
      Printf.printf "measurement: %s\n" (Sha256.to_hex h.Loader.measurement);
      0
    end
  in
  Cmd.v (Cmd.info "notary" ~doc:"Notarise a document with the notary enclave")
    Term.(const run $ verbosity $ seed_arg $ npages_arg $ document)

(* -- asm ------------------------------------------------------------------ *)

let asm_cmd =
  let file =
    Arg.(
      required
      & opt (some file) None
      & info [ "file"; "f" ] ~docv:"PROG.kasm" ~doc:"Program to assemble.")
  in
  let run file =
    let prog = read_kasm "asm" file in
    let flat = Komodo_machine.Insn.flatten prog in
    let words = Uprog.code_words prog in
    let pages = Uprog.to_page_images words in
    Printf.printf "%s: %d statements, %d flat ops, %d words, %d page(s)\n" file
      (List.length prog) (Array.length flat) (List.length words)
      (List.length pages);
    (* The measurement a canonical single-thread image of this
       program would carry: what a verifier should expect. *)
    let img =
      Image.empty ~name:file
      |> fun img ->
      Image.add_blob img ~va:Word.zero ~w:false ~x:true pages |> fun img ->
      Image.add_thread img ~entry:Word.zero
    in
    Printf.printf "enclave measurement (code @0, one thread): %s\n"
      (Sha256.to_hex (Image.expected_measurement img));
    print_endline "disassembly:";
    print_string (Komodo_user.Kasm.print prog);
    0
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:"Assemble a .kasm program, report its size and expected measurement")
    Term.(const run $ file)

(* -- campaign observability ---------------------------------------------

   --progress / --progress-out on every campaign subcommand. Progress
   renders to stderr and/or mirrors JSONL snapshots; it is a pure
   observer: stdout (and the campaign report) stays byte-identical
   whether it is on or off. *)

let int_arg name (default, doc) ~docv = Arg.(value & opt int default & info [ name ] ~docv ~doc)

(* A campaign's generation flag: [None] when not given, so that --replay
   can refuse one it would not read. *)
let gen_arg name (default, doc) ~docv =
  Arg.(value & opt (some' ~none:default int) None & info [ name ] ~docv ~doc)

let file_arg name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Stream live campaign progress to stderr: units done, units/sec and the \
           campaign's own counters (ops, injections, lock spins, ...). Never touches \
           stdout.")

let progress_out_arg =
  file_arg "progress-out"
    "Mirror progress snapshots to $(docv), one komodo-progress/1 JSON object per line."

let progress_setup ~progress ~progress_out ~label ~total =
  if (not progress) && progress_out = None then (None, fun () -> ())
  else
    let jsonl = Option.map (open_output label) progress_out in
    let p =
      Progress.create ?jsonl ~live:progress ~now:Unix.gettimeofday ~label ~total ()
    in
    (Some p, fun () -> Option.iter close_out jsonl)

let rec agg_to_json (a : Span.agg) =
  Json.Obj
    [
      ("name", Json.Str a.Span.a_name);
      ("count", Json.Int a.Span.a_count);
      ("cycles", Json.Int a.Span.a_cycles);
      ("wall_ns", Json.Int a.Span.a_wall_ns);
      ("children", Json.List (List.map agg_to_json a.Span.a_children));
    ]

let quantiles_json spans =
  Json.Obj
    (List.map
       (fun (name, h) ->
         ( name,
           Json.Obj
             [
               ("count", Json.Int (Hist.count h));
               ("p50", Json.Int (Hist.p50 h));
               ("p90", Json.Int (Hist.p90 h));
               ("p99", Json.Int (Hist.p99 h));
               ("p999", Json.Int (Hist.p999 h));
               ("max", Json.Int (Hist.max_value h));
             ] ))
       (Span.durations spans))

let profile_json ~label ~seed ~trials spans =
  Json.Obj
    [
      ("schema", Json.Str "komodo-profile/1");
      ("label", Json.Str label);
      ("seed", Json.Int seed);
      ("trials", Json.Int trials);
      ("total_spans", Json.Int (Span.total_spans spans));
      ("tree", Json.List (List.map agg_to_json (Span.aggregate spans)));
      ("quantiles", quantiles_json spans);
    ]

(* -j/--jobs for the campaign subcommands: 0 (the default) means
   one worker per recommended domain. Whatever the value, the report
   is byte-identical — parallelism only changes wallclock. *)
let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign (default: the machine's recommended \
           domain count). Reports are byte-identical at any -j: trial seeds are \
           derived from (seed, trial index), failures report the lowest failing \
           trial, and coverage merges are order-insensitive.")

(* -- seeded campaigns: check, fault, vault, smp ----------------------------

   One builder over a Campaign.DRIVER makes all four subcommands. It
   owns the shared flags (--trials --ops --seed --pages, the armed
   --bug, -j, --progress), their validation, --replay, --save-trace
   and the exit codes; each kind passes its defaults, docs and result
   wording in as data. A usage error (bad flag, unreadable or malformed
   trace) prints one "komodo <cmd>: <reason>" line and exits 2. *)

module Trace = Komodo_campaign.Trace
module Explore = Komodo_spec.Explore
module Vaultdrive = Komodo_fault.Vaultdrive
module Smpdrive = Komodo_fault.Smpdrive
module Bugs = Komodo_core.Bugs

let ( let* ) = Result.bind

(* A comma-separated class list. *)
let name_list what of_string s =
  let parts = String.split_on_char ',' s in
  match List.find_opt (fun x -> of_string (String.trim x) = None) parts with
  | Some bad -> Error (Printf.sprintf "unknown %s %S" what bad)
  | None -> Ok (List.filter_map (fun x -> of_string (String.trim x)) parts)

(* --bug NAME, on every campaign and explore: the seeded bugs of the
   layers the campaign runs. A bug of another layer is the campaign's
   own usage error ([DRIVER.validate], [Explore.validate]). *)
let bug_arg layers =
  let names = List.filter (fun b -> List.mem (Bugs.layer b) layers) Bugs.all in
  let doc =
    "Arm a seeded bug (self-test: exit 0 when the campaign catches it, 1 when it \
     survives). One of: " ^ String.concat ", " (List.map Bugs.name names) ^ "."
  in
  Arg.(value & opt (some string) None & info [ "bug" ] ~docv:"NAME" ~doc)

let parse_bug cmd =
  Option.map (fun s ->
      match Bugs.of_string s with
      | Some b -> b
      | None -> usage_error cmd (Printf.sprintf "unknown bug %S" s))

(* An armed run's verdict: a finding catches the bug (exit 0), none lets
   it survive (exit 1). *)
let self_test cmd bug ~caught =
  Printf.printf
    (if caught then "bug caught: %s self-test passed (%s armed)\n"
     else "BUG SURVIVED: the %s self-test failed (%s armed)\n")
    cmd (Bugs.name bug);
  if caught then 0 else 1

type ('cfg, 'op, 'fail, 'outcome) kind = {
  name : string;
  doc : string;
  trials : int * string;  (** default and doc, as for [ops] and [pages] *)
  ops : int * string;
  seed_doc : string;
  pages : int * string;
  config :
    (pages:int -> ops:int -> bug:Bugs.t option -> ('cfg, string) result) Term.t;
      (** the kind's own flags, building its config *)
  summary : 'cfg -> 'outcome -> unit;  (** the report's count lines *)
  finding : 'outcome -> (int * 'op list * 'fail) option;
  pp_op : 'op -> string;
  pp_failure : 'fail -> string;
  found : string * string;  (** heading and op noun of a shrunk finding *)
  clean : string list;
  finding_exit : int;  (** an unarmed finding's exit code *)
  replay :
    [ `Trace of 'cfg -> seed:int -> 'op list -> (string, 'fail) result
    | `Custom of string * (pages:int -> string -> int) ];
      (** --replay: re-run the kind's own traces (which --save-trace then
          writes), reporting a clean run's line; or a custom doc and run *)
}

let campaign_cmd (type c o f r)
    (module D : Campaign.DRIVER
      with type config = c
       and type op = o
       and type failure = f
       and type outcome = r) (k : (c, o, f, r) kind) =
  let module C = Campaign.Make (D) in
  let save, replay_doc =
    match k.replay with
    | `Trace _ ->
        ( file_arg "save-trace"
            "On violation, save the shrunk campaign as a replayable JSONL trace.",
          Printf.sprintf "Re-run the %s campaign trace in $(docv) instead of generating trials."
            k.name )
    | `Custom (doc, _) -> (Term.const None, doc)
  in
  let run level trials ops seed pages bug replay save mk jobs progress progress_out =
    setup_logs level;
    let fail msg = usage_error k.name msg in
    (* Under --replay the trace configures the run: a generation flag
       it would not read is refused, not ignored. *)
    let unread =
      List.filter_map
        (fun (flag, given) -> if given then Some flag else None)
        [
          ("--trials", trials <> None); ("--ops", ops <> None); ("--seed", seed <> None);
          ("--pages", pages <> None && match k.replay with `Trace _ -> true | `Custom _ -> false);
          ("--bug", bug <> None);
        ]
    in
    if replay <> None && unread <> [] then
      fail (String.concat ", " unread ^ ": not read with --replay (the trace configures the run)");
    let trials = Option.value trials ~default:(fst k.trials)
    and ops = Option.value ops ~default:(fst k.ops)
    and seed = Option.value seed ~default:42
    and pages = Option.value pages ~default:(fst k.pages) in
    match (replay, k.replay) with
    | Some path, `Custom (_, run) -> run ~pages path
    | Some path, `Trace rerun -> (
        let lines = Result.fold ~ok:Fun.id ~error:(file_error k.name path) (Trace.load path) in
        match C.of_trace lines with
        | Error e -> fail (Printf.sprintf "cannot replay %s: %s" path e)
        | Ok (seed, cfg, ops) -> (
            match rerun cfg ~seed ops with
            | Ok line ->
                print_endline line;
                0
            | Error v ->
                Printf.printf "replayed campaign VIOLATION:\n%s\n" (k.pp_failure v);
                4))
    | None, _ -> (
        positive k.name "trials" trials;
        let bug = parse_bug k.name bug in
        let cfg = Result.fold ~ok:Fun.id ~error:fail (mk ~pages ~ops ~bug) in
        Result.iter_error fail (D.validate cfg);
        let prog, prog_close =
          progress_setup ~progress ~progress_out ~label:k.name ~total:trials
        in
        let o = C.run ?progress:prog ~jobs cfg ~trials ~seed in
        prog_close ();
        k.summary cfg o;
        let finding = k.finding o in
        (match finding with
        | None -> List.iter print_endline k.clean
        | Some (tseed, shrunk, f) ->
            Printf.printf "%s (trial seed %d), shrunk to %d %s:\n" (fst k.found) tseed
              (List.length shrunk) (snd k.found);
            List.iteri (fun i op -> Printf.printf "  %2d. %s\n" i (k.pp_op op)) shrunk;
            print_endline (k.pp_failure f);
            Option.iter
              (fun path ->
                match Trace.save path (C.to_trace ~seed:tseed cfg shrunk) with
                | Ok () -> Printf.printf "shrunk campaign saved to %s\n" path
                | Error e -> file_error k.name path e)
              save);
        match (bug, finding) with
        | Some b, _ -> self_test k.name b ~caught:(finding <> None)
        | None, None -> 0
        | None, Some _ -> k.finding_exit)
  in
  Cmd.v (Cmd.info k.name ~doc:k.doc)
    Term.(
      const run $ verbosity $ gen_arg "trials" k.trials ~docv:"N" $ gen_arg "ops" k.ops ~docv:"N"
      $ gen_arg "seed" (42, k.seed_doc) ~docv:"SEED" $ gen_arg "pages" k.pages ~docv:"N"
      $ bug_arg D.layers $ file_arg "replay" replay_doc $ save $ k.config $ jobs_arg
      $ progress_arg $ progress_out_arg)

(* check --replay takes an explore counterexample (a komodo-trace/1
   file) or a telemetry trace from `komodo trace`. *)
let replay_check ~pages path =
  let cannot e = usage_error "check" (Printf.sprintf "cannot replay %s: %s" path e) in
  match Trace.load path with
  | Error e -> file_error "check" path e
  | Ok lines when Trace.is_trace lines -> (
      (* Replay the counterexample in differential lockstep against a
         fresh concrete world, under the trace's own bug, so an
         abstract counterexample must reproduce as a divergence. *)
      match Campaign.replay_explore_trace lines with
      | Error e -> cannot e
      | Ok (Explore.Clean n) ->
          Printf.printf "replayed %d explore ops in differential lockstep: no divergence\n" n;
          print_endline "trace refines the spec";
          0
      | Ok (Explore.Diverged d) ->
          Printf.printf "replayed explore counterexample DIVERGENCE:\n%s\n" (Diff.pp_divergence d);
          4)
  | Ok _ -> (
      match Trace_check.replay_file ~npages:pages path with
      | Error e -> cannot e
      | Ok r ->
          Printf.printf "replayed %d events (%d monitor calls) against the spec\n"
            r.Trace_check.events r.Trace_check.calls;
          List.iter
            (fun (i, msg) -> Printf.printf "event %d: VIOLATION: %s\n" i msg)
            r.Trace_check.violations;
          if r.Trace_check.violations = [] then (
            print_endline "trace refines the spec";
            0)
          else 1)

let check_cmd =
  campaign_cmd
    (module Diff)
    {
      name = "check";
      doc =
        "Differentially check the monitor against the abstract spec (adversarial call \
         sequences, lockstep comparison, shrinking), or --replay a telemetry trace. \
         Campaigns run trials on a domain pool (-j) with byte-identical reports at any \
         worker count.";
      trials = (100, "Differential trials to run.");
      ops = (Diff.default.ops_per_trial, "Adversarial ops per trial.");
      seed_doc = "Generation seed.";
      pages =
        (Diff.default.npages, "Secure pages per trial world (and expected by --replay).");
      config =
        Term.(
          const (fun metrics ~pages ~ops ~bug ->
              Ok { Diff.default with bug; npages = pages; ops_per_trial = ops; metrics })
          $ metrics_arg);
      summary =
        (fun _ o ->
          Printf.printf "%d trials, %d lockstep ops checked\n" o.Diff.trials_run o.Diff.ops_run;
          List.iter print_endline (Komodo_spec.Cover.report o.Diff.cover);
          Option.iter
            (fun reg -> print_endline (Json.to_string (Metrics.dump reg)))
            o.Diff.metrics);
      finding = (fun o -> o.Diff.divergence);
      pp_op = Diff.pp_op;
      pp_failure = Diff.pp_divergence;
      found = ("DIVERGENCE", "calls");
      clean = [ "no divergence: implementation refines the spec" ];
      finding_exit = 1;
      replay =
        `Custom
          ( "Instead of generating trials, re-check the JSONL telemetry trace in $(docv) \
             against the spec.",
            replay_check );
    }

(* -- explore ------------------------------------------------------------ *)

let explore_cmd =
  let pages =
    int_arg "pages" ~docv:"N"
      ( 6,
        "Secure pages in the explored world (at least 6 — the prelude occupies pages \
         0-5; worlds above 10 pages use a symmetry-reduced page-argument pool)." )
  in
  let depth =
    int_arg "depth" ~docv:"N" (6, "BFS depth bound, in monitor calls beyond the prelude.")
  in
  let explore_seed =
    int_arg "seed" ~docv:"SEED"
      ( 42,
        "Concrete-replay seed stamped into counterexample traces (the search itself is \
         exhaustive, not randomised)." )
  in
  let save =
    file_arg "save-trace"
      "On violation, save the shortest counterexample as a komodo-trace/1 JSONL file, \
       replayable with komodo check --replay (exit 4 on the reproduced divergence)."
  in
  let run level pages depth seed bug save jobs progress progress_out =
    setup_logs level;
    let bug = parse_bug "explore" bug in
    let config = { Explore.pages; depth; seed; mutate = bug } in
    Result.iter_error (usage_error "explore") (Explore.validate config);
    let prog, prog_close =
      progress_setup ~progress ~progress_out ~label:"explore" ~total:depth
    in
    let r = Komodo_campaign.Campaign.explore ?progress:prog ~jobs ~config () in
    prog_close ();
    Printf.printf "explored %d states, %d edges checked (%d pages, depth %d)\n"
      r.Explore.x_states r.Explore.x_edges pages depth;
    Printf.printf "new states per level: %s\n"
      (String.concat " " (List.map string_of_int r.Explore.x_levels));
    List.iter print_endline (Komodo_spec.Cover.report r.Explore.x_cover);
    (match r.Explore.x_violation with
    | None -> print_endline "no violation: every explored edge satisfies the lifecycle properties"
    | Some v ->
        List.iter print_endline (Explore.render_violation v);
        Option.iter
          (fun path ->
            match Trace.save path (Campaign.explore_trace config v) with
            | Ok () -> Printf.eprintf "[wrote %s]\n%!" path
            | Error e -> file_error "explore" path e)
          save);
    match (bug, r.Explore.x_violation) with
    | Some b, v -> self_test "explore" b ~caught:(v <> None)
    | None, None -> 0
    | None, Some _ -> 4
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check the monitor lifecycle: BFS over every \
          SMC/SVC sequence of the abstract spec up to a depth bound, checking \
          error priorities, PageDB invariants, measurement monotonicity and \
          declassification on every edge. Reports are byte-identical at any \
          -j; violations emit a shortest-path trace replayable with komodo \
          check --replay. Exits 0 clean, 4 on a violation, 1 if a --bug \
          self-test survives, 2 on usage errors.")
    Term.(
      const run $ verbosity $ pages $ depth $ explore_seed $ bug_arg Explore.layers $ save
      $ jobs_arg $ progress_arg $ progress_out_arg)

let fault_cmd =
  campaign_cmd
    (module Drive)
    {
      name = "fault";
      doc =
        "Inject adversarial faults (spurious interrupts, concurrent-core memory writes, \
         entropy exhaustion, SMC storms, OS crash/restarts) while differentially checking \
         the monitor, asserting PageDB invariants and transactional atomicity after every \
         call. Trials run on a domain pool (-j) with byte-identical reports at any worker \
         count. Exits 0 on a clean campaign, 4 on an atomicity/invariant violation.";
      trials = (25, "Fault-injection trials to run.");
      ops = (Drive.default.ops_per_trial, "Adversarial ops per trial (before fault decoration).");
      seed_doc = "Campaign seed.";
      pages = (Drive.default.npages, "Secure pages per trial world.");
      config =
        Term.(
          const (fun faults ~pages ~ops ~bug ->
              let* faults = name_list "fault class" Drive.class_of_string faults in
              Ok { Drive.default with npages = pages; ops_per_trial = ops; bug; faults })
          $ Arg.(
              value
              & opt string "irq,mem,rng,storm,crash"
              & info [ "faults" ] ~docv:"CLASSES"
                  ~doc:"Comma-separated fault classes to arm: irq, mem, rng, storm, crash."));
      summary =
        (fun _ o ->
          Printf.printf "%d trials, %d fault-decorated ops, %d faults fired\n" o.Drive.trials_run
            o.Drive.total_fops o.Drive.total_injections;
          Printf.printf "worst interrupt blackout: %d cycles (%.3f ms at 900 MHz)\n"
            o.Drive.blackout
            (Komodo_machine.Cost.cycles_to_ms o.Drive.blackout));
      finding = (fun o -> o.Drive.violation);
      pp_op = Drive.pp_fop;
      pp_failure = Drive.pp_violation;
      found = ("VIOLATION", "fops");
      clean = [ "no violation: every call stayed atomic under injected faults" ];
      finding_exit = 4;
      replay =
        `Trace
          (fun cfg ~seed ops ->
            Result.map
              (fun st ->
                Printf.sprintf "replayed %d fops (%d faults fired): no violation"
                  st.Drive.fops_run st.Drive.injections)
              (Drive.replay cfg ~seed ops));
    }

let vault_cmd =
  campaign_cmd
    (module Vaultdrive)
    {
      name = "vault";
      doc =
        "Run sealed-storage fault campaigns: a vault enclave seals its state to an \
         adversarial block store which the campaign corrupts, rolls back, reorders, \
         truncates and wipes — across OS crashes and full reboots — judging every unseal \
         against the sealed-storage theorem. Trials run on a domain pool (-j) with \
         byte-identical reports at any worker count. Exits 0 on a clean campaign, 4 on a \
         violation (silent corruption, false unseal, undetected rollback), 1 when an armed \
         --bug survives, 2 on setup errors.";
      trials = (100, "Storage-fault trials to run.");
      ops =
        ( Vaultdrive.default.ops_per_trial,
          "Vault operations per trial (before storage-fault decoration)." );
      seed_doc = "Campaign seed.";
      pages = (Vaultdrive.default.npages, "Secure pages per trial world.");
      config =
        Term.(
          const (fun classes ~pages ~ops ~bug ->
              let* classes = name_list "storage class" Vaultdrive.class_of_string classes in
              Ok { Vaultdrive.npages = pages; ops_per_trial = ops; bug; classes })
          $ Arg.(
              value
              & opt string "tamper,replay,crash"
              & info [ "classes" ] ~docv:"CLASSES"
                  ~doc:"Comma-separated storage fault classes to arm: tamper, replay, crash."));
      summary =
        (fun _ o ->
          Printf.printf "%d trials, %d storage-fault-decorated vault ops\n"
            o.Vaultdrive.trials_run o.Vaultdrive.total_sops;
          Printf.printf "%d unseal probes: %d detected (tampered/stale), %d accepted\n"
            o.Vaultdrive.total_probes o.Vaultdrive.total_detected o.Vaultdrive.total_accepted);
      finding = (fun o -> o.Vaultdrive.violation);
      pp_op = Vaultdrive.pp_sop;
      pp_failure = Vaultdrive.pp_violation;
      found = ("VIOLATION", "sops");
      clean =
        [ "no violation: every corruption detected, every rollback refused, no false unseals" ];
      finding_exit = 4;
      replay =
        `Trace
          (fun cfg ~seed ops ->
            Result.map
              (fun st ->
                Printf.sprintf
                  "replayed %d sops (%d probes, %d detected, %d accepted): no violation"
                  st.Vaultdrive.sops_run st.Vaultdrive.probes st.Vaultdrive.detected
                  st.Vaultdrive.accepted)
              (Vaultdrive.replay cfg ~seed ops));
    }

let smp_cmd =
  campaign_cmd
    (module Smpdrive)
    {
      name = "smp";
      doc =
        "Race seeded per-CPU monitor-call streams through the multi-core stepper (per-CPU \
         register banks, fine-grained per-page locks, seeded interleaving scheduler) and \
         judge every run with three oracles: deadlock freedom, PageDB invariants, and a \
         replay of the run's validation order against the sequential abstract spec (each \
         call's validation is its linearisation point). Trials run on a domain pool \
         (-j) with byte-identical reports at any worker count. Exits 0 on a clean campaign \
         (or a caught --bug), 4 on a violation with a shrunk minimal trace, 1 when an armed \
         --bug survives, 2 on setup errors.";
      trials = (200, "Multi-core trials to run.");
      ops = (Smpdrive.default.ops_per_cpu, "Monitor calls per CPU per trial.");
      seed_doc = "Campaign seed.";
      pages = (Smpdrive.default.npages, "Secure pages per trial world.");
      config =
        Term.(
          const (fun cpus faults ~pages ~ops ~bug ->
              Ok { Smpdrive.npages = pages; cpus; ops_per_cpu = ops; bug; faults })
          $ Arg.(
              value
              & opt int Smpdrive.default.cpus
              & info [ "cpus" ] ~docv:"N" ~doc:"Cores racing in each trial.")
          $ Arg.(
              value & flag
              & info [ "faults" ]
                  ~doc:
                    "Also fire the fault injector at lock acquire/release boundaries \
                     (insecure-memory writes, interrupts, RNG glitches); the campaign must \
                     stay clean."));
      summary =
        (fun cfg o ->
          Printf.printf "%d trials, %d racing calls on %d cpus\n" o.Smpdrive.trials_run
            o.Smpdrive.total_calls cfg.Smpdrive.cpus;
          Printf.printf
            "lock cycles %d: %d contended + %d uncontended acquisitions, %d spins, %d \
             footprint retries, %d lock-boundary faults\n"
            o.Smpdrive.total_lock_cycles o.Smpdrive.total_contended
            o.Smpdrive.total_uncontended o.Smpdrive.total_spins o.Smpdrive.total_retries
            o.Smpdrive.total_injections);
      finding = (fun o -> o.Smpdrive.violation);
      pp_op = Smpdrive.pp_sop;
      pp_failure = Smpdrive.pp_violation;
      found = ("VIOLATION", "calls");
      clean =
        [
          "no violation: each run's validation order refines the spec, no deadlock, \
           invariants held";
        ];
      finding_exit = 4;
      replay =
        `Trace
          (fun cfg ~seed ops ->
            Result.map
              (fun st ->
                Printf.sprintf
                  "replayed %d calls on %d cpus (%d contended, %d spins): no violation"
                  st.Smpdrive.calls cfg.Smpdrive.cpus st.Smpdrive.contended st.Smpdrive.spins)
              (Smpdrive.replay cfg ~seed ops));
    }

(* -- serve --------------------------------------------------------------- *)

let serve_cmd =
  let module Serve = Komodo_serve.Serve in
  let module Workload = Komodo_serve.Workload in
  let module Backpressure = Komodo_serve.Backpressure in
  let module Report = Komodo_serve.Report in
  let d = Serve.defaults in
  let sessions =
    Arg.(
      value & opt int d.Serve.sessions
      & info [ "sessions" ] ~docv:"N" ~doc:"Total client sessions to simulate.")
  in
  let sseed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
  in
  let pool =
    Arg.(
      value & opt int d.Serve.slots
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Enclave pool slots per shard (clamped to the shard world's secure-page \
             budget; the clamp is reported).")
  in
  let recycle =
    Arg.(
      value & opt int d.Serve.recycle
      & info [ "recycle" ] ~docv:"N"
          ~doc:
            "Tear down and rebuild a slot's enclave every N sessions (the full \
             Create..Remove lifecycle, charged in model cycles); 0 never recycles.")
  in
  let queue =
    Arg.(
      value & opt int d.Serve.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue capacity per shard; a full queue sheds arrivals.")
  in
  let deadline =
    Arg.(
      value & opt int 0
      & info [ "deadline" ] ~docv:"CYCLES"
          ~doc:
            "Shed queued sessions that waited more than $(docv) model cycles \
             (measured at dispatch); 0 disables the deadline.")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("poisson", Workload.Poisson); ("uniform", Workload.Uniform);
                    ("burst", Workload.Burst) ]) Workload.Poisson
      & info [ "arrival" ] ~docv:"DIST"
          ~doc:"Open-loop arrival process: $(b,poisson), $(b,uniform) or $(b,burst).")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("open", `Open); ("closed", `Closed) ]) `Open
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,open): arrivals ignore completions (open loop at --gap). \
             $(b,closed): --clients callers each reissue --think cycles after \
             their previous session completes.")
  in
  let clients =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop client count.")
  in
  let think =
    Arg.(
      value & opt int 50_000
      & info [ "think" ] ~docv:"CYCLES" ~doc:"Closed-loop mean think time, model cycles.")
  in
  let gap =
    Arg.(
      value & opt int d.Serve.gap
      & info [ "gap" ] ~docv:"CYCLES"
          ~doc:"Open-loop mean inter-arrival gap in model cycles (the offered load).")
  in
  let shard_sessions =
    Arg.(
      value & opt int d.Serve.shard_sessions
      & info [ "shard-sessions" ] ~docv:"N"
          ~doc:
            "Sessions per shard. The shard count is a pure function of \
             --sessions and this value — never of -j — so reports are \
             byte-identical at any worker count.")
  in
  let everify =
    Arg.(
      value & opt int d.Serve.everify
      & info [ "enclave-verify" ] ~docv:"N"
          ~doc:
            "Route every Nth session's MAC through the in-enclave verifier \
             (Verify SVC) as well; 0 keeps verification host-side only.")
  in
  let spages =
    Arg.(
      value & opt int d.Serve.npages
      & info [ "pages" ] ~docv:"N" ~doc:"Secure pages per shard world.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as komodo-serve/1 JSON to $(docv).")
  in
  let run level sessions seed pool recycle queue deadline arrival mode clients
      think gap shard_sessions everify spages jobs progress progress_out json_out =
    setup_logs level;
    let fail = usage_error "serve" in
    if sessions <= 0 || shard_sessions <= 0 || pool <= 0 || queue < 0
       || recycle < 0 || deadline < 0 || gap <= 0 || everify < 0
    then fail "counts must be positive (capacities non-negative)";
    if mode = `Closed && (clients <= 0 || think <= 0) then
      fail "closed loop needs positive --clients and --think";
    Result.iter_error fail
      (Diff.check_npages ~min:Serve.min_pages
         ~why:"a shard holds the verifier and one notary enclave" spages);
    let cfg =
      {
        Serve.sessions;
        shard_sessions;
        slots = pool;
        recycle;
        queue;
        policy =
          (if deadline > 0 then Backpressure.Deadline deadline else Backpressure.Drop);
        mode =
          (match mode with
          | `Open -> Workload.Open arrival
          | `Closed -> Workload.Closed { clients; think });
        gap;
        everify;
        npages = spages;
      }
    in
    let json = Option.map (fun path -> (path, open_output "serve" path)) json_out in
    let nshards = Serve.shards ~sessions ~shard_sessions in
    let prog, prog_close =
      progress_setup ~progress ~progress_out ~label:"serve" ~total:nshards
    in
    let r =
      try Serve.run ?progress:prog ~jobs ~cfg ~seed ()
      with Failure m | Komodo_serve.Engine.Violation m ->
        prog_close ();
        fail m
    in
    prog_close ();
    print_string (Komodo_serve.Report.render r);
    Option.iter
      (fun (path, oc) -> write_output path oc (Json.to_string (Report.to_json r) ^ "\n"))
      json;
    if r.Report.verify_failures > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve attestation-as-a-service: multiplex up to millions of simulated \
          client sessions over recycled pools of notary/verifier enclaves, with \
          bounded admission queues and latency accounting in model cycles. \
          Sessions are sharded deterministically; the report is byte-identical \
          at any -j. Exits 0 on a clean run, 1 if any session's attestation \
          failed verification, 2 on setup errors.")
    Term.(
      const run $ verbosity $ sessions $ sseed $ pool $ recycle $ queue $ deadline
      $ arrival $ mode $ clients $ think $ gap $ shard_sessions $ everify $ spages
      $ jobs_arg $ progress_arg $ progress_out_arg $ json_out)

(* -- verify ------------------------------------------------------------- *)

let verify_cmd =
  let seeds = Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Seed count.") in
  let ops = Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Adversarial ops per seed.") in
  let run level seeds ops =
    setup_logs level;
    positive "verify" "seeds" seeds;
    positive "verify" "ops" ops;
    let bad = ref 0 in
    for seed = 1 to seeds do
      (match Komodo_sec.Nonint.run_confidentiality ~seed ~nops:ops with
      | None -> Printf.printf "seed %3d: confidentiality preserved (%d ops)\n" seed ops
      | Some f ->
          incr bad;
          Format.printf "seed %3d: CONFIDENTIALITY VIOLATED: %a@." seed
            Komodo_sec.Nonint.pp_failure f);
      match Komodo_sec.Nonint.run_integrity ~seed ~nops:ops with
      | None -> Printf.printf "seed %3d: integrity preserved (%d ops)\n" seed ops
      | Some f ->
          incr bad;
          Format.printf "seed %3d: INTEGRITY VIOLATED: %a@." seed Komodo_sec.Nonint.pp_failure f
    done;
    List.iter
      (fun (name, attack) ->
        match attack () with
        | Komodo_sec.Attacks.Defended -> Printf.printf "attack defended: %s\n" name
        | Komodo_sec.Attacks.Leaked m ->
            incr bad;
            Printf.printf "ATTACK LEAKED: %s (%s)\n" name m)
      Komodo_sec.Attacks.all_komodo;
    if !bad = 0 then (print_endline "all security checks passed"; 0) else 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run the noninterference harness and attack library")
    Term.(const run $ verbosity $ seeds $ ops)


(* -- profile ------------------------------------------------------------- *)

let profile_cmd =
  let trials = int_arg "trials" ~docv:"N" (10, "Trials in the profiled workload.") in
  let ops = int_arg "ops" ~docv:"N" (40, "Adversarial ops per trial.") in
  let pseed =
    int_arg "seed" ~docv:"SEED" (42, "Workload seed (the whole profile is a function of it).")
  in
  let ppages = int_arg "pages" ~docv:"N" (40, "Secure pages per trial world.") in
  let mode =
    Arg.(
      value
      & opt (enum [ ("check", `Check); ("fault", `Fault) ]) `Check
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Workload to profile: the differential $(b,check) campaign or the $(b,fault) campaign.")
  in
  let folded =
    Arg.(
      value
      & opt string "komodo-profile.folded"
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded stacks (one 'path;to;span cycles' line each) to \
             $(docv) — feed to flamegraph.pl or speedscope.")
  in
  let json_out = file_arg "json" "Also write the komodo-profile/1 JSON profile to $(docv)." in
  let wall =
    Arg.(
      value & flag
      & info [ "wall" ]
          ~doc:
            "Attach a wallclock to the recorder. Wallclock attribution appears \
             only in the --json output; stdout stays cycles-only and \
             deterministic.")
  in
  let run level trials ops seed pages mode folded json_out wall jobs =
    setup_logs level;
    positive "profile" "trials" trials;
    Result.iter_error (usage_error "profile")
      (match mode with
      | `Check -> Diff.validate { Diff.default with npages = pages; ops_per_trial = ops }
      | `Fault -> Drive.validate { Drive.default with npages = pages; ops_per_trial = ops });
    let folded_oc = open_output "profile" folded in
    let json = Option.map (fun path -> (path, open_output "profile" path)) json_out in
    let clock = if wall then Some Unix.gettimeofday else None in
    let label, spans =
      match mode with
      | `Check ->
          let o =
            Campaign.check ~npages:pages ~ops_per_trial:ops ~profile:true ?clock
              ~jobs ~trials ~seed ()
          in
          ("check", o.Komodo_spec.Diff.spans)
      | `Fault ->
          let o =
            Campaign.fault ~npages:pages ~ops_per_trial:ops ~profile:true ?clock
              ~jobs ~faults:Drive.all_classes ~trials ~seed ()
          in
          ("fault", o.Drive.spans)
    in
    let agg = Span.aggregate spans in
    let total_cycles =
      List.fold_left (fun a n -> a + n.Span.sp_cycles) 0 spans
    in
    Printf.printf "profile: %s campaign, seed %d, %d trials, %d spans, %d modelled cycles\n\n"
      label seed trials (Span.total_spans spans) total_cycles;
    print_string (Span.render_tree agg);
    print_newline ();
    Printf.printf "%-28s %8s %10s %10s %10s %10s\n" "span" "count" "p50" "p90"
      "p99" "max";
    List.iter
      (fun (name, h) ->
        Printf.printf "%-28s %8d %10d %10d %10d %10d\n" name (Hist.count h)
          (Hist.p50 h) (Hist.p90 h) (Hist.p99 h) (Hist.max_value h))
      (Span.durations spans);
    write_output folded folded_oc (Span.to_folded spans);
    Option.iter
      (fun (path, oc) ->
        write_output path oc (Json.to_string (profile_json ~label ~seed ~trials spans) ^ "\n"))
      json;
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a fixed-seed campaign with the hierarchical span recorder: \
          print the aggregated span tree (modelled cycles, deterministic at \
          any -j) and per-span quantiles, and write flamegraph folded stacks. \
          Wallclock attribution is opt-in (--wall) and confined to the JSON \
          output.")
    Term.(
      const run $ verbosity $ trials $ ops $ pseed $ ppages $ mode $ folded
      $ json_out $ wall $ jobs_arg)

(* -- bench --compare ------------------------------------------------------

   Regression detector over the BENCH_*.json mirrors the bench
   executable emits. Every cell the bench writes is model-exact, so
   every cell must match the baseline exactly. Exit 0 clean, 1 on
   regression, 2 on schema/shape/IO problems. *)

let bench_schema = "komodo-bench/1"

let strings_of_json j =
  Option.map (List.filter_map Json.to_string_opt) (Json.to_list_opt j)

let table_of_json j =
  let strings key = Option.bind (Json.member key j) strings_of_json in
  match (strings "columns", Option.bind (Json.member "rows" j) Json.to_list_opt) with
  | Some cols, Some rows -> Some (cols, List.filter_map strings_of_json rows)
  | _ -> None

let compare_tables ~file (bcols, brows) (fcols, frows) =
  if bcols <> fcols then
    ([ Printf.sprintf "%s: column set changed" file ], [])
  else begin
    let regs = ref [] in
    let reg fmt = Printf.ksprintf (fun m -> regs := m :: !regs) fmt in
    let label = function [] -> "" | l :: _ -> l in
    List.iter
      (fun brow ->
        let lbl = label brow in
        match List.find_opt (fun fr -> label fr = lbl) frows with
        | None -> reg "%s: row %S missing from fresh results" file lbl
        | Some frow ->
            List.iteri
              (fun i col ->
                if i > 0 then begin
                  let b = try List.nth brow i with _ -> "" in
                  let f = try List.nth frow i with _ -> "" in
                  if b <> f then reg "%s: %s / %s: %S -> %S" file lbl col b f
                end)
              bcols)
      brows;
    ([], List.rev !regs)
  end

let rec flatten_json prefix j acc =
  match j with
  | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          flatten_json (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc kvs
  | Json.List l ->
      snd
        (List.fold_left
           (fun (i, acc) v ->
             (i + 1, flatten_json (Printf.sprintf "%s[%d]" prefix i) v acc))
           (0, acc) l)
  | scalar -> (prefix, scalar) :: acc

let compare_generic ~file base fresh =
  let bkv = List.rev (flatten_json "" base []) in
  let fkv = List.rev (flatten_json "" fresh []) in
  let regs = ref [] in
  let reg fmt = Printf.ksprintf (fun m -> regs := m :: !regs) fmt in
  let scalar_str = function
    | Json.Int n -> string_of_int n
    | Json.Float f -> Printf.sprintf "%g" f
    | Json.Str s -> Printf.sprintf "%S" s
    | Json.Bool b -> string_of_bool b
    | _ -> "null"
  in
  List.iter
    (fun (path, bv) ->
      if path <> "schema" then
        match List.assoc_opt path fkv with
        | None -> reg "%s: %s missing from fresh results" file path
        | Some fv ->
            if not (Json.equal bv fv) then
              reg "%s: %s: %s -> %s" file path (scalar_str bv) (scalar_str fv))
    bkv;
  ([], List.rev !regs)

let load_bench_json path =
  match
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.parse s with
      | Error e -> Error e
      | Ok j -> (
          match Json.member "schema" j with
          | Some (Json.Str v) when v = bench_schema -> Ok j
          | Some (Json.Str v) ->
              Error (Printf.sprintf "schema %S, expected %S" v bench_schema)
          | _ -> Error (Printf.sprintf "missing schema field (expected %S)" bench_schema)))

let compare_file ~fresh_dir ~baseline_dir name =
  match load_bench_json (Filename.concat baseline_dir name) with
  | Error e -> ([ Printf.sprintf "%s: baseline: %s" name e ], [])
  | Ok base -> (
      match load_bench_json (Filename.concat fresh_dir name) with
      | Error e -> ([ Printf.sprintf "%s: fresh: %s" name e ], [])
      | Ok fresh -> (
          match (table_of_json base, table_of_json fresh) with
          | Some bt, Some ft -> compare_tables ~file:name bt ft
          | None, None -> compare_generic ~file:name base fresh
          | _ -> ([ name ^ ": table/non-table shape changed" ], [])))

let bench_cmd =
  let compare_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "compare" ] ~docv:"DIR"
          ~doc:"Baseline directory of committed BENCH_*.json files (e.g. bench/baseline).")
  in
  let fresh_dir =
    Arg.(
      value & opt dir "."
      & info [ "fresh" ] ~docv:"DIR"
          ~doc:"Directory holding freshly generated BENCH_*.json files (default: the working directory).")
  in
  let files =
    Arg.(
      value & opt_all string []
      & info [ "file" ] ~docv:"NAME"
          ~doc:"Compare only this file (repeatable); 'serve' expands to BENCH_serve.json.")
  in
  let run level compare_dir fresh_dir files =
    setup_logs level;
    match compare_dir with
    | None ->
        Printf.eprintf
          "komodo bench: nothing to do — pass --compare DIR (the benchmarks \
           themselves run via the bench executable: dune exec bench/main.exe)\n";
        2
    | Some baseline_dir ->
        let names =
          match files with
          | [] ->
              Sys.readdir baseline_dir |> Array.to_list
              |> List.filter (fun f ->
                     String.length f > 6
                     && String.sub f 0 6 = "BENCH_"
                     && Filename.check_suffix f ".json")
              |> List.sort compare
          | fs ->
              List.map
                (fun f ->
                  if String.length f > 6 && String.sub f 0 6 = "BENCH_" then f
                  else "BENCH_" ^ f ^ ".json")
                fs
        in
        if names = [] then begin
          Printf.eprintf "komodo bench: no BENCH_*.json files in %s\n" baseline_dir;
          2
        end
        else begin
          let errors = ref [] and regressions = ref [] in
          List.iter
            (fun name ->
              let errs, regs =
                compare_file ~fresh_dir ~baseline_dir name
              in
              errors := !errors @ errs;
              regressions := !regressions @ regs;
              if errs = [] && regs = [] then Printf.printf "%-36s ok\n" name)
            names;
          List.iter (fun m -> Printf.printf "ERROR: %s\n" m) !errors;
          List.iter (fun m -> Printf.printf "REGRESSION: %s\n" m) !regressions;
          if !errors <> [] then begin
            Printf.printf "bench compare: %d file error(s)\n" (List.length !errors);
            2
          end
          else if !regressions <> [] then begin
            Printf.printf "bench compare: %d regression(s) against %s\n"
              (List.length !regressions) baseline_dir;
            1
          end
          else begin
            Printf.printf "bench compare: %d file(s) match %s\n"
              (List.length names) baseline_dir;
            0
          end
        end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Compare freshly generated BENCH_*.json benchmark mirrors against a \
          committed baseline directory, every cell exactly. Exits 0 when \
          clean, 1 on a metric regression, 2 on schema or IO problems.")
    Term.(const run $ verbosity $ compare_dir $ fresh_dir $ files)

let () =
  let info =
    Cmd.info "komodo" ~version:"1.0.0"
      ~doc:"A software secure-enclave monitor (Komodo, SOSP 2017) — executable model"
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ run_cmd; trace_cmd; asm_cmd; attest_cmd; check_cmd; explore_cmd;
           fault_cmd; vault_cmd; smp_cmd; serve_cmd; profile_cmd; bench_cmd;
           inspect_cmd; notary_cmd; verify_cmd ])
  in
  (* A flag cmdliner cannot parse is a usage error like any other:
     cmdliner has printed its message, the exit code is ours. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
