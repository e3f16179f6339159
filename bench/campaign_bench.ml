(** Campaign-engine scaling and determinism.

    Runs the refinement and fault campaigns at `-j 1` and `-j 4` on
    the same root seed, asserts the two reports are identical (merged
    coverage, trial/op totals, blackout — the determinism contract the
    engine promises), and records the wallclock speedup. On a host
    with >= 4 cores the refinement campaign must speed up by >= 2.5x;
    on smaller hosts the determinism assertions still bind and the
    measured (≈1x) speedup is recorded with the core count so the
    JSON mirror explains itself. *)

module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Cover = Komodo_spec.Cover
module Campaign = Komodo_campaign.Campaign

let par_jobs = 4
let speedup_target = 2.5

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let check_campaign ~jobs =
  let o = Campaign.check ~jobs ~trials:40 ~seed:7 () in
  (match o.Diff.divergence with
  | None -> ()
  | Some (tseed, _, d) ->
      Printf.printf "DIVERGENCE (trial seed %d): %s\n" tseed (Diff.pp_divergence d);
      exit 1);
  o

let fault_campaign ~jobs =
  let o = Campaign.fault ~jobs ~faults:Drive.all_classes ~trials:25 ~seed:42 () in
  (match o.Drive.violation with
  | None -> ()
  | Some (tseed, _, v) ->
      Printf.printf "FAULT VIOLATION (trial seed %d): %s\n" tseed (Drive.pp_violation v);
      exit 1);
  o

let run () =
  Report.print_header "Campaign engine (domain-parallel, deterministic)";
  let cores = Campaign.default_jobs () in
  let c1, ct1 = time (fun () -> check_campaign ~jobs:1) in
  let cn, ctn = time (fun () -> check_campaign ~jobs:par_jobs) in
  (* The determinism contract, asserted on the real artifacts: same
     merged coverage (hence the same report text), same totals. *)
  assert (Cover.equal c1.Diff.cover cn.Diff.cover);
  assert (Cover.report c1.Diff.cover = Cover.report cn.Diff.cover);
  assert (c1.Diff.trials_run = cn.Diff.trials_run);
  assert (c1.Diff.ops_run = cn.Diff.ops_run);
  let f1, ft1 = time (fun () -> fault_campaign ~jobs:1) in
  let fn, ftn = time (fun () -> fault_campaign ~jobs:par_jobs) in
  assert (f1.Drive.total_fops = fn.Drive.total_fops);
  assert (f1.Drive.total_injections = fn.Drive.total_injections);
  assert (f1.Drive.blackout = fn.Drive.blackout);
  let speedup seq par = if par <= 0. then 0. else seq /. par in
  let csp = speedup ct1 ctn and fsp = speedup ft1 ftn in
  let secs = Printf.sprintf "%.2f" in
  let j1 = "refinement -j 1 (s)" and jn = Printf.sprintf "refinement -j %d (s)" par_jobs in
  let f1s = "fault -j 1 (s)" and fns = Printf.sprintf "fault -j %d (s)" par_jobs in
  Report.print_table ~json_name:"campaign"
    ~host_rows:
      [ "cores (recommended domains)"; j1; jn; "refinement speedup"; f1s; fns; "fault speedup" ]
    ~columns:[ "metric"; "value" ]
    [
      [ "cores (recommended domains)"; string_of_int cores ];
      [ "parallel jobs measured"; string_of_int par_jobs ];
      [ "refinement trials"; string_of_int c1.Diff.trials_run ];
      [ j1; secs ct1 ];
      [ jn; secs ctn ];
      [ "refinement speedup"; Printf.sprintf "%.2fx" csp ];
      [ "fault trials"; string_of_int f1.Drive.trials_run ];
      [ f1s; secs ft1 ];
      [ fns; secs ftn ];
      [ "fault speedup"; Printf.sprintf "%.2fx" fsp ];
      [ "reports identical at -j 1 vs -j 4"; "yes (asserted)" ];
    ];
  if cores >= par_jobs then begin
    Printf.printf
      "\nrefinement speedup %.2fx at -j %d on %d cores (target >= %.1fx): %s\n"
      csp par_jobs cores speedup_target
      (if csp >= speedup_target then "ok" else "BELOW TARGET");
    assert (csp >= speedup_target)
  end
  else
    Printf.printf
      "\nonly %d core(s) available: speedup target (>= %.1fx at -j %d) not \
       measurable here; determinism asserted, wallclock recorded\n"
      cores speedup_target par_jobs
