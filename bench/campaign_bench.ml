(** Campaign-engine determinism.

    Runs the refinement and fault campaigns at `-j 1` and `-j 4` on
    the same root seed and asserts the two reports are identical
    (merged coverage, trial/op totals, blackout — the determinism
    contract the engine promises). The `-j` speedup is host time, not
    model time, so this section does not measure it; `perfbench/` is
    the repository's one host-time measurement. *)

module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Cover = Komodo_spec.Cover
module Campaign = Komodo_campaign.Campaign

let par_jobs = 4

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
  let c1 = check_campaign ~jobs:1 in
  let cn = check_campaign ~jobs:par_jobs in
  (* The determinism contract, asserted on the real artifacts: same
     merged coverage (hence the same report text), same totals. *)
  assert (Cover.equal c1.Diff.cover cn.Diff.cover);
  assert (Cover.report c1.Diff.cover = Cover.report cn.Diff.cover);
  assert (c1.Diff.trials_run = cn.Diff.trials_run);
  assert (c1.Diff.ops_run = cn.Diff.ops_run);
  let f1 = fault_campaign ~jobs:1 in
  let fn = fault_campaign ~jobs:par_jobs in
  assert (f1.Drive.total_fops = fn.Drive.total_fops);
  assert (f1.Drive.total_injections = fn.Drive.total_injections);
  assert (f1.Drive.blackout = fn.Drive.blackout);
  Report.print_table ~json_name:"campaign"
    ~columns:[ "metric"; "value" ]
    [
      [ "parallel jobs measured"; string_of_int par_jobs ];
      [ "refinement trials"; string_of_int c1.Diff.trials_run ];
      [ "fault trials"; string_of_int f1.Drive.trials_run ];
      [ "reports identical at -j 1 vs -j 4"; "yes (asserted)" ];
      [ "-j speedup"; "not measured" ];
    ]
