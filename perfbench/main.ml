(* The repository benchmark: the entry point run.py starts.

     main.exe --workload check|fault|explore|serve --seed N --seconds S --trace 0|1

   --trace 0 runs the workload's campaigns back to back through their
   public entry point for S seconds, in two passes, with host times
   scaled by the host speed probe, and prints the end-to-end metrics;
   --trace 1 runs campaign 0 untraced for S/2 seconds, then replicates
   it from its layers' public calls with every call timed for S/2
   seconds, and prints the per-layer metrics. The last stdout line is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. The
   exit code is 1 when a correctness check fails, 2 on a usage error.
   Every workload runs at -j 1; -j scaling is not measured. *)

open Util

let workloads =
  [ Wl_check.workload; Wl_fault.workload; Wl_explore.workload; Wl_serve.workload ]

(* Set-up is repeated this many times per run; the median is reported. *)
let setups = 9

(* A workload's missing model statistic (explore has no model clock;
   only serve has sessions) is reported as this constant, so every
   run prints the same metric set. *)
let not_applicable = 1.0

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.6f %s\n" name v unit) metrics;
  let field (name, v, unit) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 attempted) failed
    (String.concat ", " (List.map field metrics));
  if not correct then exit 1

let sum_int f l = List.fold_left (fun s x -> s + f x) 0 l
let sum_float f l = List.fold_left (fun s x -> s +. f x) 0. l

(* The two runs of one campaign folded into one: each unit keeps its
   faster time, the campaign its faster wall. *)
let faster (a : Workload.rep) (b : Workload.rep) =
  let units =
    if Array.length a.Workload.units <> Array.length b.Workload.units then a.Workload.units
    else Array.map2 Float.min a.Workload.units b.Workload.units
  in
  { a with Workload.units; wall = Float.min a.Workload.wall b.Workload.wall }

(* Campaign [r] with its host times scaled to the reference host speed
   by the probe readings around it. *)
let run_scaled (wl : Workload.t) ~seed r =
  let rep, k = Probe.scaled (fun () -> wl.Workload.run ~seed r) in
  { rep with Workload.units = Array.map (( *. ) k) rep.Workload.units; wall = rep.Workload.wall *. k }

(* Two passes over the same campaigns, half the time apart: pass 1 runs
   campaigns 0, 1, ... for half the time, pass 2 runs them again. Host
   contention from other tenants comes in bursts; the probe scaling
   takes out most of it, and keeping each unit's faster run drops a
   burst the probe missed unless it hit both passes. *)
let untraced (wl : Workload.t) ~seed ~seconds ~setup_s =
  let half = now () +. (seconds /. 2.) in
  let rec pass1 r acc =
    let acc = run_scaled wl ~seed r :: acc in
    if now () < half then pass1 (r + 1) acc else List.rev acc
  in
  let first = pass1 0 [] in
  let second = List.mapi (fun r _ -> run_scaled wl ~seed r) first in
  let peak_mb = peak_mem_mb () in
  let all = first @ second in
  let repeatable =
    List.for_all2 (fun (a : Workload.rep) b -> a.Workload.digest = b.Workload.digest) first second
  in
  let reps = List.map2 faster first second in
  let rep0 = List.hd reps in
  let model = wl.Workload.model ~seed reps in
  let ops = sum_int (fun r -> r.Workload.ops) reps in
  let attempted = sum_int (fun r -> r.Workload.attempted) all in
  let failed = sum_int (fun r -> r.Workload.failed) all in
  let wall = sum_float (fun r -> r.Workload.wall) reps in
  let units = Array.concat (List.map (fun r -> r.Workload.units) reps) in
  Printf.printf "campaigns: %d, each run in two passes; faster runs: %.3f s, %d %s, %d %s units\n"
    (List.length reps) wall ops wl.Workload.ops_name (Array.length units) wl.Workload.unit_name;
  Printf.printf "host speed: probe median %.0f us over %d readings; host times scaled to %.0f us\n"
    (1e6 *. median (Array.of_list !Probe.readings))
    (List.length !Probe.readings) (1e6 *. Probe.reference);
  Printf.printf "campaign 0: %s\n" rep0.Workload.summary;
  Printf.printf "digest: report %s, model %s%s\n" rep0.Workload.digest
    model.Workload.model_digest
    (if model.Workload.consistent then "" else " (NOT REPRODUCED by the model pass)");
  Printf.printf "fail_frac: %g (%d failed of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  let opt = Option.value ~default:not_applicable in
  result
    ~correct:(failed = 0 && model.Workload.consistent && repeatable)
    ~attempted ~failed
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", float_of_int ops /. wall, "1/s");
      ("unit_ms_p50", 1e3 *. quantile 0.5 units, "ms");
      ("unit_ms_p90", 1e3 *. quantile 0.9 units, "ms");
      ("peak_mem_mb", peak_mb, "MB");
      ("model_kcycles_per_op", opt model.Workload.kcycles_per_op, "kcycles");
      ("sojourn_p50_kcycles", opt model.Workload.sojourn_p50_kcycles, "kcycles");
      ("sojourn_p99_kcycles", opt model.Workload.sojourn_p99_kcycles, "kcycles");
    ]

let traced (wl : Workload.t) ~seed ~seconds =
  let half = seconds /. 2. in
  let repeat f =
    let t0 = now () in
    let rec go acc =
      let acc = f () :: acc in
      if now () -. t0 < half then go acc else List.rev acc
    in
    go []
  in
  let base = repeat (fun () -> wl.Workload.run ~seed 0) in
  let rep0 = List.hd base in
  let untraced_wall = median (Array.of_list (List.map (fun r -> r.Workload.wall) base)) in
  let l = Layers.create () in
  let reps = repeat (fun () -> wl.Workload.traced l ~seed 0) in
  let n = List.length reps in
  let traced_wall = sum_float (fun r -> r.Workload.wall) reps in
  let unit_secs = sum_float (fun r -> sum r.Workload.units) reps in
  let metrics = Layers.metrics l ~reps:n ~traced_wall ~untraced_wall ~unit_secs in
  let coverage = Layers.coverage l in
  let wrapped = Layers.secs (Layers.wrappers l) in
  let same = List.for_all (fun r -> r.Workload.digest = rep0.Workload.digest) in
  let failed = sum_int (fun r -> r.Workload.failed) reps in
  Printf.printf "campaign 0: %d untraced runs (median %.3f s), %d traced replicas\n"
    (List.length base) untraced_wall n;
  Printf.printf "untraced: %s\ntraced:   %s\n" rep0.Workload.summary
    (List.hd reps).Workload.summary;
  Printf.printf "digest: untraced %s, traced %s\n" rep0.Workload.digest
    (List.hd reps).Workload.digest;
  Printf.printf "fidelity: %d isolated re-call checks, %d mismatches\n" l.Layers.checks
    (List.length l.Layers.mismatches);
  List.iteri
    (fun i m -> if i < 5 then Printf.printf "  mismatch: %s\n" m)
    (List.rev l.Layers.mismatches);
  Printf.printf
    "coverage: median %.4f of a traced unit's time explained by layer timers; %.4f of all \
     traced time (wrapper calls %.3f s, estimated layers inside them %.3f s)\n"
    coverage
    (Layers.ratio (Layers.explained l) traced_wall)
    wrapped l.Layers.inner_secs;
  result
    ~correct:
      (failed = 0 && same base && same reps && l.Layers.mismatches = []
      && coverage >= 0.95 && coverage <= 1.05)
    ~attempted:(sum_int (fun r -> r.Workload.attempted) reps)
    ~failed metrics

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " check | fault | explore | serve");
      ("--seed", Arg.Set_int seed, " workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, " measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let wl =
    match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
    | Some w when (!trace = 0 || !trace = 1) && !seconds > 0. -> w
    | _ ->
        Arg.usage (Arg.align spec) usage;
        exit 2
  in
  Printf.printf
    "host: nproc %d, OCaml %s, -j 1 (every workload runs at -j 1; this benchmark does not \
     measure -j scaling)\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.printf "workload: %s, seed %d, %g s, trace %d\n" wl.Workload.name !seed !seconds !trace;
  let setup_times =
    Array.init setups (fun k ->
        let (_, dt), scale = Probe.scaled (fun () -> time (fun () -> wl.Workload.setup ~seed:!seed k)) in
        dt *. scale)
  in
  let setup_s = median setup_times in
  Printf.printf "setup: median %.4f s over %d warm-ups (scaled to reference host speed)\n" setup_s
    setups;
  if !trace = 0 then untraced wl ~seed:!seed ~seconds:!seconds ~setup_s
  else traced wl ~seed:!seed ~seconds:!seconds
