(** Refinement-checker throughput: differential trials (world build +
    adversarial generation + lockstep spec/impl stepping) per second,
    plus the coverage the run achieved. Trials run on the campaign
    engine's domain pool (all available cores); the report is
    byte-identical at any worker count, so parallelism is free
    throughput. A divergence here is a correctness failure, not a slow
    benchmark — it aborts the run. *)

module Diff = Komodo_spec.Diff
module Cover = Komodo_spec.Cover
module Campaign = Komodo_campaign.Campaign

let run () =
  Report.print_header "Refinement (differential spec checker)";
  let trials = 40 and seed = 7 in
  let jobs = Campaign.default_jobs () in
  let t0 = Unix.gettimeofday () in
  let o = Campaign.check ~jobs ~trials ~seed () in
  let dt = Unix.gettimeofday () -. t0 in
  (match o.Diff.divergence with
  | None -> ()
  | Some (tseed, ops, d) ->
      Printf.printf "DIVERGENCE (trial seed %d, %d ops):\n%s\n" tseed (List.length ops)
        (Diff.pp_divergence d);
      exit 1);
  let count l = List.length (List.filter (fun (_, n) -> n > 0) l) in
  let smc = count (Cover.smc_covered o.Diff.cover) in
  let svc = count (Cover.svc_covered o.Diff.cover) in
  let errs = List.length (Cover.errors_covered o.Diff.cover) in
  let trans = List.length (Cover.transitions o.Diff.cover) in
  let per_sec n = if dt <= 0. then "n/a" else Printf.sprintf "%.1f" (float_of_int n /. dt) in
  Report.print_table ~json_name:"refinement"
    ~columns:[ "metric"; "value" ]
    [
      [ "trials"; string_of_int o.Diff.trials_run ];
      [ "worker domains (host cores)"; string_of_int jobs ];
      [ "lockstep ops checked"; string_of_int o.Diff.ops_run ];
      [ "sequences/sec"; per_sec o.Diff.trials_run ];
      [ "ops/sec"; per_sec o.Diff.ops_run ];
      [ "SMC calls covered"; Printf.sprintf "%d/12" smc ];
      [ "SVC calls covered"; Printf.sprintf "%d/9" svc ];
      [ "error codes exercised"; string_of_int errs ];
      [ "page transitions observed"; string_of_int trans ];
    ]
