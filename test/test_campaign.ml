(* The domain-parallel campaign engine (lib/campaign). The load-bearing
   property is schedule independence: a campaign at -j 1 and -j 4 is
   the same mathematical object — identical merged coverage, identical
   outcome fields, identical shrunk traces — including when an armed
   bug makes trials fail at racy times. Plus pool stress: a raising
   trial fails the campaign with its index in the message (no hang, no
   orphaned domain), and cancellation under a violation storm still
   reports the lowest failing index. *)

module Cover = Komodo_spec.Cover
module Aspec = Komodo_spec.Aspec
module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Bugs = Komodo_core.Bugs
module Metrics = Komodo_telemetry.Metrics
module Json = Komodo_telemetry.Json
module Pool = Komodo_campaign.Pool
module Campaign = Komodo_campaign.Campaign
module Progress = Komodo_campaign.Progress
module Span = Komodo_telemetry.Span
module Hist = Komodo_telemetry.Hist
module Fault_campaign = Campaign.Make (Drive)

(* -- check campaigns: -j 1 vs -j 4 ------------------------------------- *)

let check_divergence_str = function
  | None -> "none"
  | Some (tseed, ops, d) ->
      Printf.sprintf "seed %d: %s / %s" tseed
        (String.concat "; " (List.map Diff.pp_op ops))
        (Diff.pp_divergence d)

let same_check_outcome name (a : Diff.outcome) (b : Diff.outcome) =
  Alcotest.(check int) (name ^ ": trials_run") a.Diff.trials_run b.Diff.trials_run;
  Alcotest.(check int) (name ^ ": ops_run") a.Diff.ops_run b.Diff.ops_run;
  Alcotest.(check string)
    (name ^ ": divergence")
    (check_divergence_str a.Diff.divergence)
    (check_divergence_str b.Diff.divergence);
  Alcotest.(check bool) (name ^ ": cover tables equal") true
    (Cover.equal a.Diff.cover b.Diff.cover);
  Alcotest.(check (list string))
    (name ^ ": cover report byte-identical")
    (Cover.report a.Diff.cover) (Cover.report b.Diff.cover)

let test_check_deterministic () =
  List.iter
    (fun (trials, seed) ->
      let run jobs = Campaign.check ~jobs ~trials ~seed () in
      same_check_outcome
        (Printf.sprintf "trials %d seed %d" trials seed)
        (run 1) (run 4))
    [ (12, 7); (12, 42); (7, 123456) ]

let test_check_metrics_deterministic () =
  let dump jobs =
    let o = Campaign.check ~metrics:true ~jobs ~trials:10 ~seed:7 () in
    match o.Diff.metrics with
    | None -> Alcotest.fail "metrics requested but absent"
    | Some reg -> Json.to_string (Metrics.dump reg)
  in
  Alcotest.(check string) "merged metrics dump byte-identical" (dump 1) (dump 4)

let test_check_mutation_same_shrunk_trace () =
  (* An armed spec mutation: both worker counts must converge on the
     same lowest failing trial and shrink it to the same trace. *)
  let run jobs =
    Campaign.check ~bug:Bugs.No_alias_check ~jobs ~trials:60
      ~seed:42 ()
  in
  let a = run 1 and b = run 4 in
  (match a.Diff.divergence with
  | None -> Alcotest.fail "mutation survived the checker"
  | Some _ -> ());
  same_check_outcome "mutation no-alias-check" a b

(* -- fault campaigns: -j 1 vs -j 4 ------------------------------------- *)

let fault_violation_str = function
  | None -> "none"
  | Some (tseed, fops, v) ->
      (* the full reproducibility contract: the shrunk campaign
         serialises to the same JSONL trace *)
      String.concat "\n" (Fault_campaign.to_trace ~seed:tseed Drive.default fops)
      ^ "\n" ^ Drive.pp_violation v

let same_fault_outcome name (a : Drive.outcome) (b : Drive.outcome) =
  Alcotest.(check int) (name ^ ": trials_run") a.Drive.trials_run b.Drive.trials_run;
  Alcotest.(check int) (name ^ ": total_fops") a.Drive.total_fops b.Drive.total_fops;
  Alcotest.(check int)
    (name ^ ": total_injections")
    a.Drive.total_injections b.Drive.total_injections;
  Alcotest.(check int) (name ^ ": blackout") a.Drive.blackout b.Drive.blackout;
  Alcotest.(check string)
    (name ^ ": violation + shrunk trace")
    (fault_violation_str a.Drive.violation)
    (fault_violation_str b.Drive.violation)

let test_fault_deterministic () =
  let run jobs =
    Campaign.fault ~jobs ~faults:Drive.all_classes ~trials:6 ~seed:42 ()
  in
  same_fault_outcome "clean storm" (run 1) (run 4)

let test_fault_bug_same_shrunk_trace bug () =
  (* The self-test bugs fire mid-campaign, so at -j 4 several trials
     race toward violations; the report must still name the lowest
     trial and carry the identical shrunk trace. *)
  let run jobs =
    Campaign.fault ~jobs ~faults:Drive.all_classes ~trials:10 ~seed:42 ~bug ()
  in
  let a = run 1 and b = run 4 in
  (match a.Drive.violation with
  | None -> Alcotest.failf "bug %s survived the campaign" (Bugs.name bug)
  | Some _ -> ());
  same_fault_outcome (Bugs.name bug) a b

(* -- pool stress -------------------------------------------------------- *)

let test_pool_completed () =
  match
    Pool.run ~jobs:4 ~trials:50 ~failed:(fun _ -> false) (fun i -> i * i)
  with
  | Pool.Stopped _ -> Alcotest.fail "nothing failed, yet the pool stopped"
  | Pool.Completed a ->
      Alcotest.(check int) "all trials" 50 (Array.length a);
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
        a

let test_pool_zero_trials () =
  match Pool.run ~jobs:4 ~trials:0 ~failed:(fun _ -> false) (fun i -> i) with
  | Pool.Completed [||] -> ()
  | _ -> Alcotest.fail "empty campaign should complete with no results"

let test_pool_exception_carries_seed () =
  (* A raising trial must fail the whole campaign — promptly, with the
     trial's label (which callers build from the derived seed) in the
     message, and with every domain joined rather than hung. *)
  let seed_of i = Campaign.trial_seed ~root:99 i in
  let attempt () =
    Pool.run
      ~label:(fun i -> Printf.sprintf "trial %d (seed %d)" i (seed_of i))
      ~jobs:4 ~trials:40
      ~failed:(fun _ -> false)
      (fun i -> if i = 23 then failwith "synthetic trial crash" else i)
  in
  match attempt () with
  | exception Pool.Trial_error { index; msg } ->
      Alcotest.(check int) "lowest raising index" 23 index;
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the derived seed" true
        (contains msg (string_of_int (seed_of 23)));
      Alcotest.(check bool) "message carries the exception" true
        (contains msg "synthetic trial crash")
  | _ -> Alcotest.fail "raising trial did not fail the campaign"

let test_pool_lowest_raiser_wins () =
  (* Two raising indices: after all domains join, the error must name
     the lowest one regardless of which raised first on the clock. *)
  match
    Pool.run ~jobs:4 ~trials:40
      ~failed:(fun _ -> false)
      (fun i -> if i = 31 || i = 6 then failwith "boom" else i)
  with
  | exception Pool.Trial_error { index; _ } ->
      Alcotest.(check int) "lowest raising index" 6 index
  | _ -> Alcotest.fail "raising trials did not fail the campaign"

let test_pool_violation_storm () =
  (* Every trial fails: cancellation must stop the pool at index 0 with
     an empty prefix — and leave no domain running (a hang here is the
     bug this test exists to catch). *)
  List.iter
    (fun jobs ->
      match
        Pool.run ~jobs ~trials:200 ~failed:(fun _ -> true) (fun i -> i)
      with
      | Pool.Stopped { prefix = [||]; index = 0; failure = 0 } -> ()
      | Pool.Stopped { index; _ } ->
          Alcotest.failf "-j %d stopped at index %d, not 0" jobs index
      | Pool.Completed _ -> Alcotest.failf "-j %d completed a failing storm" jobs)
    [ 1; 2; 4; 8 ]

let test_pool_lowest_failure_any_jobs () =
  (* A synthetic failure pattern: the stop index and surviving prefix
     must match the sequential run at every worker count. *)
  let failing i = i mod 7 = 3 in
  List.iter
    (fun jobs ->
      match Pool.run ~jobs ~trials:64 ~failed:failing (fun i -> i) with
      | Pool.Completed _ -> Alcotest.failf "-j %d missed the failures" jobs
      | Pool.Stopped { prefix; index; failure } ->
          Alcotest.(check int) (Printf.sprintf "-j %d stop index" jobs) 3 index;
          Alcotest.(check int) (Printf.sprintf "-j %d failure" jobs) 3 failure;
          Alcotest.(check (list int))
            (Printf.sprintf "-j %d surviving prefix" jobs)
            [ 0; 1; 2 ]
            (Array.to_list prefix))
    [ 1; 2; 4; 8 ]

(* -- cover merge canonicality ------------------------------------------ *)

let test_cover_merge_order_insensitive () =
  (* Two covers with different (overlapping) content, merged in both
     orders: identical tables and byte-identical reports. This is the
     property that lets per-worker covers merge in completion order. *)
  let cfg = { Diff.default with ops_per_trial = 25 } in
  let a = (Diff.run_trial cfg ~seed:7).Diff.t_cover in
  let b = (Diff.run_trial cfg ~seed:42).Diff.t_cover in
  let ab = Cover.create () and ba = Cover.create () in
  Cover.merge_into ab a;
  Cover.merge_into ab b;
  Cover.merge_into ba b;
  Cover.merge_into ba a;
  Alcotest.(check bool) "sources differ (the test is not vacuous)" false
    (Cover.equal a b);
  Alcotest.(check bool) "a+b = b+a" true (Cover.equal ab ba);
  Alcotest.(check (list string)) "reports byte-identical"
    (Cover.report ab) (Cover.report ba);
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list (pair string int))) (name ^ " listing identical")
        (f ab) (f ba))
    [
      ("smc", Cover.smc_covered);
      ("svc", Cover.svc_covered);
      ("errors", Cover.errors_covered);
      ("transitions", Cover.transitions);
    ]

(* -- span profiling under parallelism ---------------------------------- *)

let test_check_profile_spans_deterministic () =
  let run jobs = Campaign.check ~profile:true ~jobs ~trials:24 ~seed:77 () in
  let a = run 1 and b = run 4 in
  same_check_outcome "profiled check" a b;
  Alcotest.(check bool) "spans recorded" true (a.Diff.spans <> []);
  Alcotest.(check string) "aggregated span tree byte-identical"
    (Span.render_tree (Span.aggregate a.Diff.spans))
    (Span.render_tree (Span.aggregate b.Diff.spans));
  Alcotest.(check string) "folded stacks byte-identical"
    (Span.to_folded a.Diff.spans)
    (Span.to_folded b.Diff.spans);
  let da = Span.durations a.Diff.spans and db = Span.durations b.Diff.spans in
  Alcotest.(check (list string)) "duration keys identical"
    (List.map fst da) (List.map fst db);
  List.iter2
    (fun (n, ha) (_, hb) ->
      Alcotest.(check bool) (n ^ ": duration histograms equal") true
        (Hist.equal ha hb))
    da db;
  (* Clock-free spans never carry wallclock. *)
  let rec no_wall n =
    n.Span.sp_wall_ns = 0 && List.for_all no_wall n.Span.sp_children
  in
  Alcotest.(check bool) "no wallclock without a clock" true
    (List.for_all no_wall a.Diff.spans)

let test_fault_profile_spans_deterministic () =
  let run jobs =
    Campaign.fault ~profile:true ~jobs ~faults:Drive.all_classes ~trials:12
      ~seed:42 ()
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "spans recorded" true (a.Drive.spans <> []);
  Alcotest.(check string) "aggregated span tree byte-identical"
    (Span.render_tree (Span.aggregate a.Drive.spans))
    (Span.render_tree (Span.aggregate b.Drive.spans))

(* -- progress reporting ------------------------------------------------- *)

(* A fake stepping clock: deterministic snapshots, no unix. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.25;
    !t

let progress_to_buffer ~label ~total =
  let path = Filename.temp_file "komodo_progress" ".jsonl" in
  let oc = open_out path in
  let p =
    Progress.create ~interval:0.0 ~live:false ~jsonl:oc ~now:(fake_clock ())
      ~label ~total ()
  in
  let read () =
    close_out oc;
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  (p, read)

let snapshot_field line name =
  match Json.parse line with
  | Error e -> Alcotest.failf "snapshot line does not parse: %s" e
  | Ok j -> Json.member name j

let test_progress_reports_campaign () =
  let trials = 16 in
  let p, read = progress_to_buffer ~label:"check" ~total:trials in
  let with_progress = Campaign.check ~progress:p ~jobs:2 ~trials ~seed:9 () in
  let without = Campaign.check ~jobs:1 ~trials ~seed:9 () in
  (* Observer only: the campaign outcome is untouched. *)
  same_check_outcome "progress does not perturb" with_progress without;
  let lines = read () in
  (* interval 0 emits one snapshot per trial plus the final one. *)
  Alcotest.(check int) "one snapshot per trial + final"
    (trials + 1) (List.length lines);
  Alcotest.(check int) "snapshots counter agrees" (trials + 1)
    (Progress.snapshots p);
  let last = List.nth lines (List.length lines - 1) in
  (match snapshot_field last "schema" with
  | Some (Json.Str s) -> Alcotest.(check string) "schema tag" Progress.schema s
  | _ -> Alcotest.fail "snapshot lacks a schema field");
  (match snapshot_field last "done" with
  | Some (Json.Int n) -> Alcotest.(check int) "all trials folded in" trials n
  | _ -> Alcotest.fail "snapshot lacks done");
  match snapshot_field last "ops" with
  | Some (Json.Int n) ->
      Alcotest.(check int) "ops total matches the outcome" without.Diff.ops_run n
  | _ -> Alcotest.fail "snapshot lacks ops"

let test_progress_totals_schedule_independent () =
  let trials = 12 in
  let final jobs =
    let p, read = progress_to_buffer ~label:"fault" ~total:trials in
    let _ =
      Campaign.fault ~progress:p ~jobs ~faults:Drive.all_classes ~trials
        ~seed:13 ()
    in
    let lines = read () in
    List.nth lines (List.length lines - 1)
  in
  let a = final 1 and b = final 4 in
  (* Totals in the final snapshot are merge results of per-trial data,
     so they cannot depend on the schedule; wallclock fields use the
     fake clock and match too. *)
  Alcotest.(check string) "final snapshot byte-identical at -j 1 / -j 4" a b;
  match snapshot_field a "injections" with
  | Some (Json.Int n) ->
      Alcotest.(check bool) "storm injected something" true (n > 0)
  | _ -> Alcotest.fail "fault snapshot lacks injections"

(* -- smp campaigns: -j 1 vs -j 4 ---------------------------------------- *)

module Smpdrive = Komodo_fault.Smpdrive
module Smp_campaign = Campaign.Make (Smpdrive)

let smp_violation_str = function
  | None -> "none"
  | Some (tseed, sops, v) ->
      String.concat "\n" (Smp_campaign.to_trace ~seed:tseed Smpdrive.default sops)
      ^ "\n" ^ Smpdrive.pp_violation v

let same_smp_outcome name (a : Smpdrive.outcome) (b : Smpdrive.outcome) =
  Alcotest.(check int) (name ^ ": trials_run") a.Smpdrive.trials_run
    b.Smpdrive.trials_run;
  Alcotest.(check int) (name ^ ": total_calls") a.Smpdrive.total_calls
    b.Smpdrive.total_calls;
  Alcotest.(check int) (name ^ ": contended") a.Smpdrive.total_contended
    b.Smpdrive.total_contended;
  Alcotest.(check int) (name ^ ": spins") a.Smpdrive.total_spins
    b.Smpdrive.total_spins;
  Alcotest.(check int) (name ^ ": lock_cycles") a.Smpdrive.total_lock_cycles
    b.Smpdrive.total_lock_cycles;
  Alcotest.(check string)
    (name ^ ": violation + shrunk trace")
    (smp_violation_str a.Smpdrive.violation)
    (smp_violation_str b.Smpdrive.violation)

let test_smp_deterministic () =
  let run jobs = Smp_campaign.run ~jobs Smpdrive.default ~trials:25 ~seed:7 in
  let a = run 1 and b = run 4 in
  (match a.Smpdrive.violation with
  | Some _ -> Alcotest.fail "clean smp campaign violated"
  | None -> ());
  same_smp_outcome "clean smp" a b

let test_smp_faults_clean () =
  (* Lock-boundary fault injection: the construction-call alphabet
     cannot observe insecure-memory writes, interrupts, or RNG
     glitches, so the campaign must stay violation-free. *)
  let o = Smp_campaign.run { Smpdrive.default with faults = true } ~trials:25 ~seed:7 in
  Alcotest.(check bool) "no violation under lock-boundary faults" true
    (o.Smpdrive.violation = None);
  Alcotest.(check bool) "faults actually fired" true
    (o.Smpdrive.total_injections > 0)

let test_smp_bug_same_shrunk_trace bug () =
  let run jobs =
    Smp_campaign.run ~jobs { Smpdrive.default with bug = Some bug } ~trials:60 ~seed:42
  in
  let a = run 1 and b = run 4 in
  (match a.Smpdrive.violation with
  | None ->
      Alcotest.failf "%s survived the smp campaign" (Bugs.name bug)
  | Some (_, shrunk, _) ->
      Alcotest.(check bool) "shrunk trace nonempty" true (shrunk <> []));
  same_smp_outcome (Bugs.name bug) a b

(* A committed regression trace, shrunk from a bug self-test, must keep
   reproducing its violation. *)
let smp_committed_trace_replays file bug kind () =
  let lines =
    List.filter (fun l -> String.trim l <> "") (Testlib.data_lines ("traces/" ^ file))
  in
  match Smp_campaign.of_trace lines with
  | Error e -> Alcotest.failf "committed trace unparseable: %s" e
  | Ok (seed, cfg, sops) -> (
      Alcotest.(check bool) "trace carries the bug" true (cfg.Smpdrive.bug = Some bug);
      match Smpdrive.replay cfg ~seed sops with
      | Ok _ -> Alcotest.fail "committed violation no longer reproduces"
      | Error v -> Alcotest.(check string) "same violation kind" kind v.Smpdrive.kind)

let test_smp_committed_trace_replays =
  smp_committed_trace_replays "smp_lock_inversion.jsonl" Bugs.Lock_inversion "deadlock"

(* -- the trace reader under fuzzing --------------------------------------- *)

module Trace = Komodo_campaign.Trace
module Explore = Komodo_spec.Explore
module Vaultdrive = Komodo_fault.Vaultdrive
module Vault_campaign = Campaign.Make (Vaultdrive)

(* Every way a replay reads a trace. A reader may accept or reject its
   input, but never raise; explore's also replays what it accepts. *)
let readers =
  [
    ("fault", fun l -> Result.is_ok (Fault_campaign.of_trace l));
    ("vault", fun l -> Result.is_ok (Vault_campaign.of_trace l));
    ("smp", fun l -> Result.is_ok (Smp_campaign.of_trace l));
    ("explore", fun l -> Result.is_ok (Campaign.replay_explore_trace l));
  ]

let explore_seed_trace () =
  let cfg = { Explore.pages = 7; depth = 0; seed = 42; mutate = None } in
  Campaign.explore_trace cfg
    {
      Explore.v_prelude = false;
      v_depth = 0;
      v_reason = "prelude";
      v_ops = Explore.prelude_xops (Explore.make_world cfg);
    }

let seed_traces =
  lazy
    (explore_seed_trace ()
    :: List.map
         (fun f -> Result.get_ok (Trace.load (Testlib.data_file ("traces/" ^ f))))
         [ "partial_remove.jsonl"; "vault_rollback.jsonl"; "smp_lock_inversion.jsonl" ])

(* Maximal runs of [-0-9]: the integer literals of a JSON line (and
   some string contents, which is fine to mutate too). *)
let digit_runs s =
  let is_d c = c = '-' || (c >= '0' && c <= '9') in
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_d s.[i] then (
      let j = ref i in
      while !j < n && is_d s.[!j] do incr j done;
      go !j ((i, !j - i) :: acc))
    else go (i + 1) acc
  in
  go 0 []

let splice s (pos, len) by =
  String.sub s 0 pos ^ by ^ String.sub s (pos + len) (String.length s - pos - len)

let edit_line line =
  let open QCheck.Gen in
  let n = String.length line in
  let truncate = map (fun p -> String.sub line 0 p) (int_bound n) in
  let garble =
    list_size (int_range 1 3)
      (pair (int_bound (max 0 (n - 1)))
         (oneofl [ '"'; '\\'; 'u'; 'z'; '{'; '}'; '['; ']'; ','; ':'; '0'; '-'; '\000'; '\255' ]))
    >|= fun edits ->
    let b = Bytes.of_string line in
    List.iter (fun (i, c) -> if i < n then Bytes.set b i c) edits;
    Bytes.to_string b
  in
  let any_int =
    oneof
      [
        oneofl [ 0; 1; -1; 3; 4; 7; 8; 19; 99; 4096; 4097; 1 lsl 32; max_int; min_int ];
        small_signed_int;
        int;
      ]
  in
  let new_int =
    match digit_runs line with
    | [] -> return line
    | runs -> pair (oneofl runs) any_int >|= fun (r, v) -> splice line r (string_of_int v)
  in
  let flip_kind =
    let key = "\"kind\":\"" in
    let kl = String.length key in
    let rec find i =
      if i + kl > n then None
      else if String.sub line i kl = key then Some (i + kl)
      else find (i + 1)
    in
    match find 0 with
    | None -> return line
    | Some start ->
        let stop = try String.index_from line start '"' with Not_found -> n in
        oneofl [ "fault"; "vault"; "smp"; "explore"; "check"; ""; "\\uzzzz" ]
        >|= fun k -> splice line (start, stop - start) k
  in
  frequency [ (1, truncate); (2, garble); (3, new_int); (1, flip_kind); (1, return "") ]

let gen_mutated =
  let open QCheck.Gen in
  (* Delayed: the committed traces are read on first use. *)
  unit >>= fun () ->
  oneofl (Lazy.force seed_traces) >>= fun base ->
  let edit lines =
    int_bound (List.length lines - 1) >>= fun i ->
    edit_line (List.nth lines i) >|= fun l -> List.mapi (fun j x -> if j = i then l else x) lines
  in
  int_range 1 3 >>= fun k ->
  let rec go k lines = if k = 0 then return lines else edit lines >>= go (k - 1) in
  go k base

let prop_reader_never_raises =
  QCheck.Test.make ~count:300 ~name:"trace readers return Ok or Error on mangled traces"
    (QCheck.make ~print:(String.concat "\n") gen_mutated)
    (fun lines ->
      List.iter (fun (_, read) -> ignore (read lines)) readers;
      true)

(* Hand-found inputs that each crashed a replay before the readers
   range-checked them: every one must now be a plain [Error]. *)
let test_reader_regressions () =
  let fault_h = {|{"schema":"komodo-trace/1","kind":"fault","seed":42,"npages":40,"bug":null}|} in
  let vault_h = {|{"schema":"komodo-trace/1","kind":"vault","seed":5,"npages":48,"bug":null}|} in
  let smp_h = {|{"schema":"komodo-trace/1","kind":"smp","seed":21,"npages":32,"cpus":4,"bug":null}|} in
  let smc = {|{"op":{"call":1,"args":[],"budget":null},"inj":[]}|} in
  let cases =
    [
      ("fault", [ fault_h; {|{"op":{"call":11,"args":["\uzzzz"],"budget":null},"inj":[]}|} ]);
      ("explore",
        [ {|{"schema":"komodo-trace/1","kind":"explore","seed":42,"npages":7,"bug":"\uzzzz"}|} ]);
      ("smp", [ {|{"schema":"komodo-trace/1","kind":"smp","seed":21,"npages":32,"cpus":0,"bug":null}|} ]);
      ( "smp",
        [
          {|{"schema":"komodo-trace/1","kind":"smp","seed":21,"npages":32,"cpus":4611686018427387903,"bug":null}|};
        ] );
      ("vault", [ vault_h; {|{"tamper":{"block":99,"byte":0,"bit":0}}|} ]);
      ("vault", [ vault_h; {|{"update":{"index":-1,"value":0}}|} ]);
      ("smp", [ smp_h; {|{"cpu":7,"call":6,"args":[3,17,40963,0]}|} ]);
      ("smp", [ smp_h; {|{"cpu":0,"call":6,"args":[1,2,3,4,5]}|} ]);
      ("fault", Result.get_ok (Trace.load (Testlib.data_file "traces/smp_lock_inversion.jsonl")));
      ("fault", [ fault_h; {|{"op":{"call":0,"args":[0,0,0,0,0,0],"budget":null},"inj":[]}|} ]);
      ("fault", [ fault_h; {|{"op":{"write_ins":{"addr":4294967295,"value":1}},"inj":[]}|} ]);
      ("fault",
        [ fault_h;
          {|{"op":{"call":1,"args":[],"budget":null},"inj":[{"point":"commit","action":{"mem_write":{"addr":3,"value":1}}}]}|} ]);
      ("fault", [ {|{"schema":"komodo-trace/1","kind":"fault","seed":1,"npages":100000,"bug":null}|}; smc ]);
      ("fault", [ {|{"seed":42,"npages":40,"bug":null}|}; smc ]);
    ]
  in
  List.iteri
    (fun i (kind, lines) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d (%s) rejected" i kind)
        false
        ((List.assoc kind readers) lines))
    cases;
  Alcotest.(check bool) "missing file" true (Result.is_error (Trace.load "/nonexistent"));
  Alcotest.(check bool) "unwritable path" true
    (Result.is_error (Trace.save "/nonexistent/dir/x.jsonl" []))

(* Values that parse but could never take effect: an IRQ budget only
   fires on reaching 0, and boundaries are counted from 0. A replay that
   accepted them would silently drop the interrupt. *)
let test_reader_rejects_unfireable () =
  let fault_h = {|{"schema":"komodo-trace/1","kind":"fault","seed":42,"npages":40,"bug":null}|} in
  let enter budget inj =
    Printf.sprintf {|{"op":{"call":11,"args":[16,0,0,0],"budget":%s},"inj":[%s]}|} budget inj
  in
  let irq_at point = Printf.sprintf {|{"point":%s,"action":"irq"}|} point in
  let explore_h =
    {|{"schema":"komodo-trace/1","kind":"explore","seed":42,"npages":7,"bug":null,"depth":1,"reason":"r"}|}
  in
  let cases =
    [
      ("fault", [ fault_h; enter "-1" "" ]);
      ("fault", [ fault_h; enter {|"x"|} "" ]);
      ("fault", [ fault_h; enter "1.5" "" ]);
      ("fault", [ fault_h; enter "null" (irq_at {|{"insn":-3}|}) ]);
      ("fault", [ fault_h; enter "null" (irq_at {|{"lock":-1}|}) ]);
      ("explore", [ explore_h; {|{"call":2,"args":[0,1],"budget":-1}|} ]);
    ]
  in
  List.iteri
    (fun i (kind, lines) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d (%s) rejected" i kind)
        false
        ((List.assoc kind readers) lines))
    cases;
  (* The same lines with values that can fire are accepted. *)
  List.iter
    (fun (name, kind, lines) ->
      Alcotest.(check bool) name true ((List.assoc kind readers) lines))
    [
      ("budget 0", "fault", [ fault_h; enter "0" "" ]);
      ("budget null", "fault", [ fault_h; enter "null" "" ]);
      ("insn 0", "fault", [ fault_h; enter "null" (irq_at {|{"insn":0}|}) ]);
      ("lock 0", "fault", [ fault_h; enter "null" (irq_at {|{"lock":0}|}) ]);
      ("explore budget null", "explore", [ explore_h; {|{"call":2,"args":[0,1],"budget":null}|} ]);
    ]

(* The flag cases the CLI maps to exit 2, at the driver level. *)
let test_validate_rejects () =
  let rejected name r = Alcotest.(check bool) name true (Result.is_error r) in
  rejected "check: 4 pages" (Diff.validate { Diff.default with npages = 4 });
  rejected "fault: 4 pages" (Drive.validate { Drive.default with npages = 4 });
  rejected "fault: -5 ops" (Drive.validate { Drive.default with ops_per_trial = -5 });
  rejected "vault: 4 pages" (Vaultdrive.validate { Vaultdrive.default with npages = 4 });
  rejected "vault: 5000 pages" (Vaultdrive.validate { Vaultdrive.default with npages = 5000 });
  rejected "smp: 0 cpus" (Smpdrive.validate { Smpdrive.default with cpus = 0 });
  rejected "smp: max_int cpus" (Smpdrive.validate { Smpdrive.default with cpus = max_int });
  rejected "smp: 4 pages" (Smpdrive.validate { Smpdrive.default with npages = 4 });
  List.iter
    (fun (name, r) -> Alcotest.(check bool) (name ^ " default accepted") true (Result.is_ok r))
    [
      ("check", Diff.validate Diff.default);
      ("fault", Drive.validate Drive.default);
      ("vault", Vaultdrive.validate Vaultdrive.default);
      ("smp", Smpdrive.validate Smpdrive.default);
    ]

module Check_campaign = Campaign.Make (Diff)

(* The layer rule: a driver's config, and with it a trace header, arms
   exactly the bugs of the layers its trials run. *)
let test_bug_layers () =
  let bug_h kind rest b =
    Printf.sprintf {|{"schema":"komodo-trace/1","kind":"%s","seed":42,%s,"bug":"%s"}|} kind
      rest (Bugs.name b)
  in
  let check_rule name layers validate of_header =
    List.iter
      (fun b ->
        let ok = List.mem (Bugs.layer b) layers in
        let what = Printf.sprintf "%s with %s" name (Bugs.name b) in
        Alcotest.(check bool) (what ^ ": validate") ok (Result.is_ok (validate b));
        Alcotest.(check bool) (what ^ ": trace header") ok (of_header b))
      Bugs.all
  in
  check_rule "check" Bugs.[ Monitor; Spec ]
    (fun b -> Diff.validate { Diff.default with bug = Some b })
    (fun b -> Result.is_ok (Check_campaign.of_trace [ bug_h "check" {|"npages":40|} b ]));
  check_rule "fault" Bugs.[ Monitor; Spec ]
    (fun b -> Drive.validate { Drive.default with bug = Some b })
    (fun b -> Result.is_ok (Fault_campaign.of_trace [ bug_h "fault" {|"npages":40|} b ]));
  check_rule "smp" Bugs.[ Monitor; Stepper ]
    (fun b -> Smpdrive.validate { Smpdrive.default with bug = Some b })
    (fun b ->
      Result.is_ok (Smp_campaign.of_trace [ bug_h "smp" {|"npages":32,"cpus":4|} b ]));
  check_rule "vault" Bugs.[ Monitor; Vault_enclave ]
    (fun b -> Vaultdrive.validate { Vaultdrive.default with bug = Some b })
    (fun b -> Result.is_ok (Vault_campaign.of_trace [ bug_h "vault" {|"npages":48|} b ]));
  check_rule "explore" Bugs.[ Spec ]
    (fun b ->
      match Explore.make_world { Explore.pages = 7; depth = 0; seed = 42; mutate = Some b } with
      | _ -> Ok ()
      | exception Invalid_argument e -> Error e)
    (fun b ->
      Result.is_ok
        (Campaign.replay_explore_trace
           [ bug_h "explore" {|"npages":7,"depth":0,"reason":"r"|} b ]))

(* Error words at and above 2^31 and call numbers outside Table 1 are
   counted and listed as they always were: the listings below were
   recorded from the original two-lookup tables. *)
let test_cover_wide_points () =
  let c = Cover.create () in
  Cover.record_svc c ~call:Aspec.svc_verify ~err:0x8000_0000;
  Cover.record_svc c ~call:Aspec.svc_verify ~err:0x8000_0000;
  Cover.record_svc c ~call:99 ~err:0xffff_ffff;
  Cover.record_smc c ~call:99 ~err:Aspec.e_invalid_arg;
  Cover.record_smc c ~call:Aspec.smc_stop ~err:0x8000_0001;
  Cover.record_transition c ~from_type:"free" ~to_type:"thread";
  let twice = Cover.create () in
  Cover.merge_into twice c;
  Cover.merge_into twice c;
  Alcotest.(check (list string)) "report"
    [
      "SMC coverage (1/12 calls): GetPhysPages=0 InitAddrspace=0 InitThread=0 \
       InitL2PTable=0 AllocSpare=0 MapSecure=0 MapInsecure=0 Finalise=0 Enter=0 Resume=0 \
       Stop=1 Remove=0";
      "SVC coverage (1/9 calls): Exit=0 GetRandom=0 Attest=0 Verify=2 InitL2PTable=0 \
       MapData=0 UnmapData=0 SetDispatcher=0 ResumeFaulted=0";
      "error codes exercised (4): Invalid_arg=1 Err(2147483648)=2 Err(2147483649)=1 \
       Err(4294967295)=1";
      "page transitions (1): free->thread=1";
    ]
    (Cover.report c);
  Alcotest.(check (list (pair string string))) "points an empty cover lacks"
    [
      ("smc", "Stop/Err(2147483649)");
      ("smc", "Unknown(99)/Invalid_arg");
      ("svc", "Verify/Err(2147483648)");
      ("svc", "Unknown(99)/Err(4294967295)");
      ("transition", "free->thread");
    ]
    (Cover.dominates (Cover.create ()) c);
  Alcotest.(check (list int)) "SMC deficit" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 12 ]
    (Cover.smc_deficit c);
  Alcotest.(check (list int)) "SVC deficit" [ 0; 1; 2; 4; 5; 6; 7; 8 ] (Cover.svc_deficit c);
  Alcotest.(check (list (pair string int))) "merged twice: doubled counts"
    [ ("Invalid_arg", 2); ("Err(2147483648)", 4); ("Err(2147483649)", 2); ("Err(4294967295)", 2) ]
    (Cover.errors_covered twice);
  Alcotest.(check bool) "a cover equals itself" true (Cover.equal c c);
  Alcotest.(check bool) "doubled counts differ" false (Cover.equal c twice);
  Alcotest.(check (list (pair string string))) "same points" [] (Cover.dominates c twice)

let suite =
  [
    Alcotest.test_case "check: -j 1 = -j 4 across seeds" `Quick
      test_check_deterministic;
    Alcotest.test_case "check: merged metrics identical at any -j" `Quick
      test_check_metrics_deterministic;
    Alcotest.test_case "check: mutation shrunk trace identical at any -j" `Quick
      test_check_mutation_same_shrunk_trace;
    Alcotest.test_case "fault: -j 1 = -j 4 on a clean storm" `Quick
      test_fault_deterministic;
    Alcotest.test_case "fault: partial MapSecure shrunk trace identical" `Quick
      (test_fault_bug_same_shrunk_trace Bugs.Partial_map_secure);
    Alcotest.test_case "fault: partial Remove shrunk trace identical" `Quick
      (test_fault_bug_same_shrunk_trace Bugs.Partial_remove);
    Alcotest.test_case "pool: clean campaign completes in order" `Quick
      test_pool_completed;
    Alcotest.test_case "pool: zero trials" `Quick test_pool_zero_trials;
    Alcotest.test_case "pool: raising trial fails with its seed named" `Quick
      test_pool_exception_carries_seed;
    Alcotest.test_case "pool: lowest raising index wins" `Quick
      test_pool_lowest_raiser_wins;
    Alcotest.test_case "pool: violation storm stops at index 0, no orphans"
      `Quick test_pool_violation_storm;
    Alcotest.test_case "pool: stop index schedule-independent" `Quick
      test_pool_lowest_failure_any_jobs;
    Alcotest.test_case "cover: merge is order-insensitive" `Quick
      test_cover_merge_order_insensitive;
    Alcotest.test_case "check: profiled span tree identical at any -j" `Quick
      test_check_profile_spans_deterministic;
    Alcotest.test_case "fault: profiled span tree identical at any -j" `Quick
      test_fault_profile_spans_deterministic;
    Alcotest.test_case "progress: observes without perturbing" `Quick
      test_progress_reports_campaign;
    Alcotest.test_case "progress: totals schedule-independent" `Quick
      test_progress_totals_schedule_independent;
    Alcotest.test_case "smp: -j 1 = -j 4 on a clean campaign" `Quick
      test_smp_deterministic;
    Alcotest.test_case "smp: clean under lock-boundary faults" `Quick
      test_smp_faults_clean;
    Alcotest.test_case "smp: missing_page_lock shrunk trace identical" `Quick
      (test_smp_bug_same_shrunk_trace Bugs.Missing_page_lock);
    Alcotest.test_case "smp: lock_inversion shrunk trace identical" `Quick
      (test_smp_bug_same_shrunk_trace Bugs.Lock_inversion);
    Alcotest.test_case "smp: committed deadlock trace replays" `Quick
      test_smp_committed_trace_replays;
    Testlib.qcheck prop_reader_never_raises;
    Alcotest.test_case "trace: hand-found crashers are errors" `Quick
      test_reader_regressions;
    Alcotest.test_case "trace: unfireable budgets and points are errors" `Quick
      test_reader_rejects_unfireable;
    Alcotest.test_case "drivers: out-of-range configs rejected" `Quick
      test_validate_rejects;
    (* MapSecure(6, 17) validates while MapSecure(9, 17) has validated
       but not committed, reading page 17 as free: the validation order
       does not explain its Addr_in_use, though an order that puts it
       first does. *)
    Alcotest.test_case "smp: committed lost-update trace replays" `Quick
      (smp_committed_trace_replays "smp_missing_page_lock.jsonl" Bugs.Missing_page_lock
         "linearisability");
    Alcotest.test_case "drivers: bugs outside their layers rejected" `Quick test_bug_layers;
    Alcotest.test_case "cover: wide error words and unknown calls listed" `Quick
      test_cover_wide_points;
  ]
