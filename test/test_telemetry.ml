(* Telemetry: metrics counters against known call sequences, JSONL
   round-trips, the spec replay that audits a trace, and the null
   sink's zero-observable-cost guarantee. *)

open Testlib
module Event = Komodo_telemetry.Event
module Sink = Komodo_telemetry.Sink
module Metrics = Komodo_telemetry.Metrics
module Trace_check = Komodo_spec.Trace_check
module Aspec = Komodo_spec.Aspec
module Json = Komodo_telemetry.Json
module Span = Komodo_telemetry.Span

let stamp at ev = { Event.at; ev }
let lc at addrspace stage = stamp at (lifecycle addrspace stage)

let stamped = Alcotest.testable Event.pp_stamped Event.equal_stamped

(* One complete Figure 3 arc: load (InitAddrspace, InitL2PTable,
   MapSecure, InitThread, Finalise), Enter until SVC Exit, then
   teardown (Stop, Remove x5). Returns the final OS state. *)
let full_lifecycle ?(sink = Sink.null) () =
  let os = Os.boot ~seed:0x7E57 ~npages:32 ~sink () in
  let os, h = load_prog os Progs.sum_to_n in
  let os, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int 100, Word.zero, Word.zero)
  in
  check_err "enter" Errors.Success e;
  Alcotest.(check int) "sum result" 5050 (Word.to_int v);
  let os, e = Os.teardown os ~addrspace:h.Loader.addrspace in
  check_err "teardown" Errors.Success e;
  os

(* -- Metrics ------------------------------------------------------------ *)

let test_counters_match_invocations () =
  let reg = Metrics.create () in
  let _ = full_lifecycle ~sink:(Metrics.sink reg) () in
  (* The lifecycle above issues exactly these calls. *)
  List.iter
    (fun (key, n) ->
      Alcotest.(check int) (key ^ " count") n (Metrics.call_count reg key))
    [
      ("smc.InitAddrspace", 1);
      ("smc.InitL2PTable", 1);
      ("smc.MapSecure", 1);
      ("smc.InitThread", 1);
      ("smc.Finalise", 1);
      ("smc.Enter", 1);
      ("smc.Stop", 1);
      ("smc.Remove", 5);
      ("svc.Exit", 1);
      ("smc.Resume", 0);
    ];
  (* 12 SMCs + 1 SVC, all successful. *)
  Alcotest.(check int) "successes" 13 (Metrics.error_count reg "Success");
  Alcotest.(check int) "entries = exits" (Metrics.event_count reg "smc_entry")
    (Metrics.event_count reg "smc_exit");
  Alcotest.(check int) "12 SMC entries" 12 (Metrics.event_count reg "smc_entry");
  Alcotest.(check int) "one user burst, one exception" 1
    (Metrics.event_count reg "exception.svc")

let test_histograms_cover_every_call () =
  let reg = Metrics.create () in
  let _ = full_lifecycle ~sink:(Metrics.sink reg) () in
  let names = Metrics.call_names reg in
  Alcotest.(check bool) "some calls recorded" true (names <> []);
  List.iter
    (fun name ->
      match Metrics.stats reg name with
      | None -> Alcotest.failf "%s: no cycle histogram" name
      | Some s ->
          Alcotest.(check int) (name ^ " samples") (Metrics.call_count reg name) s.Metrics.count;
          Alcotest.(check bool) (name ^ " p50 > 0") true (s.Metrics.p50 > 0);
          Alcotest.(check bool) (name ^ " p95 >= p50") true (s.Metrics.p95 >= s.Metrics.p50);
          Alcotest.(check bool) (name ^ " max >= p95") true (s.Metrics.max >= s.Metrics.p95))
    names

let test_null_sink_same_cycles () =
  let reg = Metrics.create () in
  let quiet = full_lifecycle () in
  let watched = full_lifecycle ~sink:(Metrics.sink reg) () in
  Alcotest.(check int) "instrumentation charges no modelled cycles"
    (Os.cycles quiet) (Os.cycles watched)

(* -- JSONL round-trip --------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let sink, collected = Sink.collect () in
  let _ = full_lifecycle ~sink () in
  let events = collected () in
  Alcotest.(check bool) "trace nonempty" true (events <> []);
  List.iter
    (fun ev ->
      match Event.of_jsonl_line (Event.to_jsonl_line ev) with
      | Ok ev' -> Alcotest.check stamped "event round-trips" ev ev'
      | Error e -> Alcotest.failf "parse failed: %s" e)
    events;
  let text = String.concat "\n" (List.map Event.to_jsonl_line events) ^ "\n" in
  match Event.parse_trace text with
  | Ok events' -> Alcotest.(check (list stamped)) "trace round-trips" events events'
  | Error e -> Alcotest.failf "trace parse failed: %s" e

let test_json_values () =
  let v =
    Json.Obj
      [ ("a", Json.List [ Json.Int 1; Json.Str "x]},"; Json.Null ]);
        ("b", Json.Obj [ ("neg", Json.Int (-3)); ("t", Json.Bool true) ]) ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "nested JSON round-trips" true (Json.equal v v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.parse "{\"a\": [1, }" with
  | Ok _ -> Alcotest.fail "malformed JSON accepted"
  | Error _ -> ());
  (* A garbled \u escape is a parse error, not an exception. *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "bad escape accepted: %s" s
      | Error _ -> ())
    [ "\"\\uzzzz\""; "\"\\u_1_2\""; "\"\\u12\"" ]

(* Every byte value — control characters, DEL, non-ASCII — must
   survive the \u00XX escaping used by the JSONL sinks. *)
let prop_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"JSON string escaping round-trips any bytes"
    QCheck.string
    (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | _ -> false)

let test_metrics_dump_has_quantiles () =
  let reg = Metrics.create () in
  let _ = full_lifecycle ~sink:(Metrics.sink reg) () in
  match Json.member "cycles" (Metrics.dump reg) with
  | Some (Json.Obj calls) ->
      Alcotest.(check bool) "some calls recorded" true (calls <> []);
      List.iter
        (fun (name, obj) ->
          List.iter
            (fun q ->
              match Json.member q obj with
              | Some (Json.Int _) -> ()
              | _ -> Alcotest.failf "%s: missing %s quantile" name q)
            [ "p50"; "p90"; "p99" ])
        calls
  | _ -> Alcotest.fail "dump has no cycles object"

(* -- Span recorder ------------------------------------------------------ *)

let test_span_nesting () =
  let r = Span.create () in
  Alcotest.(check bool) "live recorder" false (Span.is_null r);
  Span.enter r ~name:"smc.Enter" ~cycles:0;
  Span.enter r ~name:"validate" ~cycles:10;
  Span.mark r ~name:"commit" ~cycles:40;
  Span.enter r ~name:"hash" ~cycles:50;
  Span.exit_ r ~cycles:120;
  Span.exit_ r ~cycles:200;
  Span.exit_ r ~cycles:220;
  Span.exit_ r ~cycles:999 (* empty stack: no-op *);
  match Span.roots r with
  | [ root ] -> (
      Alcotest.(check string) "root name" "smc.Enter" root.Span.sp_name;
      Alcotest.(check int) "root cycles" 220 root.Span.sp_cycles;
      Alcotest.(check int) "no wallclock without a clock" 0 root.Span.sp_wall_ns;
      match root.Span.sp_children with
      | [ v; c ] -> (
          Alcotest.(check string) "first phase" "validate" v.Span.sp_name;
          Alcotest.(check int) "validate cycles" 30 v.Span.sp_cycles;
          Alcotest.(check string) "mark opens sibling" "commit" c.Span.sp_name;
          Alcotest.(check int) "commit cycles" 160 c.Span.sp_cycles;
          match c.Span.sp_children with
          | [ h ] ->
              Alcotest.(check string) "nested child" "hash" h.Span.sp_name;
              Alcotest.(check int) "hash cycles" 70 h.Span.sp_cycles;
              Alcotest.(check int) "commit self cycles" 90 (Span.self_cycles c)
          | l -> Alcotest.failf "commit has %d children" (List.length l))
      | l -> Alcotest.failf "root has %d children" (List.length l))
  | l -> Alcotest.failf "%d roots" (List.length l)

let test_span_exit_to_unwinds () =
  let r = Span.create () in
  Span.enter r ~name:"call" ~cycles:0;
  let d = Span.depth r in
  Span.enter r ~name:"a" ~cycles:1;
  Span.enter r ~name:"b" ~cycles:2;
  Span.enter r ~name:"c" ~cycles:3;
  (* An error path unwinds straight back to the handler's depth. *)
  Span.exit_to r ~depth:d ~cycles:10;
  Alcotest.(check int) "depth restored" d (Span.depth r);
  Span.exit_ r ~cycles:20;
  match Span.roots r with
  | [ call ] -> (
      Alcotest.(check int) "call cycles" 20 call.Span.sp_cycles;
      match call.Span.sp_children with
      | [ a ] ->
          Alcotest.(check string) "a kept" "a" a.Span.sp_name;
          Alcotest.(check int) "a closed at the unwind" 9 a.Span.sp_cycles
      | l -> Alcotest.failf "call has %d children" (List.length l))
  | l -> Alcotest.failf "%d roots" (List.length l)

let test_span_null_records_nothing () =
  Alcotest.(check bool) "null is null" true (Span.is_null Span.null);
  Span.enter Span.null ~name:"x" ~cycles:0;
  Span.mark Span.null ~name:"y" ~cycles:1;
  Span.exit_ Span.null ~cycles:2;
  Span.exit_to Span.null ~depth:0 ~cycles:3;
  Alcotest.(check int) "no roots" 0 (List.length (Span.roots Span.null));
  Alcotest.(check int) "no depth" 0 (Span.depth Span.null)

let test_span_readout_is_deterministic () =
  let record () =
    let r = Span.create () in
    List.iter
      (fun (start, stop) ->
        Span.enter r ~name:"op" ~cycles:start;
        Span.enter r ~name:"hash" ~cycles:(start + 1);
        Span.exit_ r ~cycles:(stop - 1);
        Span.exit_ r ~cycles:stop)
      [ (0, 10); (10, 30); (30, 100) ];
    Span.roots r
  in
  let roots = record () in
  Alcotest.(check int) "total spans" 6 (Span.total_spans roots);
  (match Span.aggregate roots with
  | [ agg ] ->
      Alcotest.(check string) "merged name" "op" agg.Span.a_name;
      Alcotest.(check int) "merged count" 3 agg.Span.a_count;
      Alcotest.(check int) "merged cycles" 100 agg.Span.a_cycles
  | l -> Alcotest.failf "%d aggregated roots" (List.length l));
  Alcotest.(check string)
    "identical run renders identically"
    (Span.render_tree (Span.aggregate roots))
    (Span.render_tree (Span.aggregate (record ())));
  let folded = Span.to_folded roots in
  Alcotest.(check bool) "folded mentions the nested path" true
    (let sub = "op;hash " in
     let n = String.length sub in
     let rec go i =
       i + n <= String.length folded && (String.sub folded i n = sub || go (i + 1))
     in
     go 0);
  match Span.durations roots with
  | [ ("hash", hh); ("op", oh) ] ->
      Alcotest.(check int) "hash occurrences" 3 (Komodo_telemetry.Hist.count hh);
      Alcotest.(check int) "op occurrences" 3 (Komodo_telemetry.Hist.count oh)
  | l -> Alcotest.failf "%d duration entries" (List.length l)

(* -- Trace file + spec replay (the CLI's `komodo trace` contract) ------- *)

let test_trace_file_is_orderly () =
  let path = Filename.temp_file "komodo_trace" ".jsonl" in
  let oc = open_out path in
  let _ = full_lifecycle ~sink:(Sink.jsonl oc) () in
  close_out oc;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Event.parse_trace text with
  | Error e -> Alcotest.failf "trace parse failed: %s" e
  | Ok events ->
      (match Trace_check.check ~npages:32 events with
      | Error e -> Alcotest.failf "trace malformed: %s" e
      | Ok r ->
          Alcotest.(check (list string))
            "audit clean" []
            (List.map (fun (i, m) -> Printf.sprintf "%d: %s" i m) r.Trace_check.violations));
      let stages =
        List.filter_map
          (fun { Event.ev; _ } ->
            match ev with
            | Event.Enclave_lifecycle { stage; _ } -> Some (Event.stage_name stage)
            | _ -> None)
          events
      in
      Alcotest.(check (list string))
        "full lifecycle arc"
        [ "init"; "finalise"; "enter"; "stop"; "remove" ]
        stages

let test_teardown_flushes_sink () =
  let path = Filename.temp_file "komodo_flush" ".jsonl" in
  let oc = open_out path in
  let _ = full_lifecycle ~sink:(Sink.jsonl oc) () in
  (* Deliberately no [close_out]: Os.teardown must have flushed, so
     the file already holds the complete trace. *)
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Event.parse_trace text with
  | Error e -> Alcotest.failf "unflushed trace: %s" e
  | Ok events ->
      Alcotest.(check bool) "events on disk before close" true (events <> []);
      let last = List.nth events (List.length events - 1) in
      (match last.Event.ev with
      | Event.Enclave_lifecycle { stage; _ } ->
          Alcotest.(check string)
            "trace is complete through teardown" "remove"
            (Event.stage_name stage)
      | _ -> ());
      ());
  close_out oc;
  Sys.remove path

(* -- Spec-replay rejections ---------------------------------------------- *)

let expect_violation name trace needle =
  let message =
    match Trace_check.check ~npages:32 trace with
    | Error e -> e
    | Ok { Trace_check.violations = (_, m) :: _; _ } -> m
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: message mentions %S (got %S)" name needle message)
    true (contains message needle)

let test_audit_rejects_disorder () =
  expect_violation "enter before finalise"
    [ lc 0 0 Event.Ls_init; lc 1 0 Event.Ls_enter ]
    "outside any monitor call";
  expect_violation "enter after remove"
    [ lc 0 0 Event.Ls_init; lc 1 0 Event.Ls_finalise; lc 2 0 Event.Ls_stop;
      lc 3 0 Event.Ls_remove; lc 4 0 Event.Ls_enter ]
    "outside any monitor call";
  expect_violation "remove before stop"
    [ lc 0 0 Event.Ls_init; lc 1 0 Event.Ls_finalise; lc 2 0 Event.Ls_remove ]
    "outside any monitor call";
  expect_violation "retype from wrong type"
    [ stamp 0 (retype 3 "datapage" "free") ]
    "outside any monitor call";
  expect_violation "svc outside smc"
    [ stamp 0 (Event.Svc_entry { call = 0; name = "Exit"; args = [ 0; 0 ] }) ]
    "outside any monitor call";
  expect_violation "time regression"
    [ lc 10 0 Event.Ls_init; lc 5 0 Event.Ls_finalise ]
    "goes back";
  expect_violation "unterminated smc"
    [ stamp 0 (Event.Smc_entry { call = 1; name = "GetPhysPages"; args = [] }) ]
    "ends inside";
  (* Milestones inside a call that the spec does not predict. *)
  expect_violation "enter of a space not final"
    (init_addrspace_events 0
    @ smc_events 1 Aspec.smc_init_thread [ 0; 2; 0 ] [ retype 2 "free" "thread" ]
    @ smc_events 2 ~err:Aspec.e_not_final Aspec.smc_enter [ 2; 0; 0; 0 ]
        [ lifecycle 0 Event.Ls_enter ])
    "spec predicts none, trace has enter 0";
  expect_violation "finalise reported twice"
    (init_addrspace_events 0
    @ smc_events 1 Aspec.smc_finalise [ 0 ]
        [ lifecycle 0 Event.Ls_finalise; lifecycle 0 Event.Ls_finalise ])
    "trace has finalise 0; finalise 0";
  expect_violation "remove of a live space"
    (init_addrspace_events 0
    @ smc_events 1 ~err:Aspec.e_not_stopped Aspec.smc_remove [ 0 ]
        [ lifecycle 0 Event.Ls_remove ])
    "spec predicts none, trace has remove 0";
  (* And the positive case: a whole InitAddrspace call refines the spec. *)
  match Trace_check.check ~npages:32 (init_addrspace_events 0) with
  | Ok r ->
      Alcotest.(check int) "orderly call" 0 (List.length r.Trace_check.violations)
  | Error e -> Alcotest.failf "orderly call malformed: %s" e

(* An svc_entry carries the enclave's r1 and r2 through JSON; one
   without its args field, or an entry with an argument that is not an
   integer, does not parse, and an svc_entry without exactly two args
   is malformed input to the replay. *)
let test_svc_entry_args () =
  let entry args = stamp 0 (Event.Svc_entry { call = 5; name = "MapData"; args }) in
  (match Event.of_jsonl_line (Event.to_jsonl_line (entry [ 5; 0x5003 ])) with
  | Ok e -> Alcotest.check stamped "args round-trip" (entry [ 5; 0x5003 ]) e
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun line ->
      match Event.of_jsonl_line line with
      | Ok _ -> Alcotest.failf "parsed: %s" line
      | Error _ -> ())
    [
      {|{"at":0,"kind":"svc_entry","call":5,"name":"MapData"}|};
      {|{"at":0,"kind":"svc_entry","call":5,"name":"MapData","args":[5,"0x5003"]}|};
      {|{"at":0,"kind":"smc_entry","call":3,"name":"InitThread","args":[0,4,"0x8000",0]}|};
    ];
  List.iter
    (fun args ->
      match Trace_check.check ~npages:32 [ entry args ] with
      | Ok _ -> Alcotest.failf "an svc_entry with %d args validated" (List.length args)
      | Error _ -> ())
    [ []; [ 1; 2; 3 ] ]

let suite =
  [
    Alcotest.test_case "counters match invocations" `Quick test_counters_match_invocations;
    Alcotest.test_case "histograms cover every call" `Quick test_histograms_cover_every_call;
    Alcotest.test_case "null sink: identical cycles" `Quick test_null_sink_same_cycles;
    Alcotest.test_case "JSONL round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "JSON values round-trip" `Quick test_json_values;
    qcheck prop_json_string_roundtrip;
    Alcotest.test_case "metrics dump carries p50/p90/p99" `Quick
      test_metrics_dump_has_quantiles;
    Alcotest.test_case "span nesting and phase marks" `Quick test_span_nesting;
    Alcotest.test_case "span exit_to unwinds error paths" `Quick
      test_span_exit_to_unwinds;
    Alcotest.test_case "null span recorder records nothing" `Quick
      test_span_null_records_nothing;
    Alcotest.test_case "span readout is deterministic" `Quick
      test_span_readout_is_deterministic;
    Alcotest.test_case "trace file parses and audits clean" `Quick test_trace_file_is_orderly;
    Alcotest.test_case "teardown flushes the sink" `Quick test_teardown_flushes_sink;
    Alcotest.test_case "audit rejects out-of-order traces" `Quick test_audit_rejects_disorder;
    Alcotest.test_case "svc_entry keeps r1 and r2" `Quick test_svc_entry_args;
  ]
