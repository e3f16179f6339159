(* check: the differential refinement campaign, Campaign.check at 40
   pages and 40 ops per trial, trials back to back (closed loop). The
   only workload where the interpreter, the abstraction function and
   the spec step run in lockstep. *)

module Campaign = Komodo_campaign.Campaign
module Agg = Komodo_campaign.Agg
module Diff = Komodo_spec.Diff
module Cover = Komodo_spec.Cover
module Span = Komodo_telemetry.Span
open Workload

let npages = 40
let ops_per_trial = 40

let report ~trials ~ops ~divergent cover =
  let summary =
    Printf.sprintf "%d trials, %d lockstep ops, %s" trials ops
      (if divergent then "DIVERGED" else "no divergence")
  in
  (Util.digest (summary ^ "\n" ^ String.concat "\n" (Cover.report cover)), summary)

let of_outcome ~units ~wall (o : Diff.outcome) =
  let digest, summary =
    report ~trials:o.Diff.trials_run ~ops:o.Diff.ops_run
      ~divergent:(o.Diff.divergence <> None) o.Diff.cover
  in
  {
    ops = o.Diff.ops_run;
    attempted = o.Diff.trials_run;
    failed = (if o.Diff.divergence = None then 0 else 1);
    units;
    wall;
    digest;
    summary;
  }

let check ?progress ?profile ~trials ~seed () =
  Campaign.check ~npages ~ops_per_trial ?progress ?profile ~jobs:1 ~trials ~seed ()

let run ~trials ~seed r =
  let clock, stamps = stamp_clock () in
  let progress = progress ~label:"check" ~total:trials clock in
  let o, wall =
    Util.time (fun () -> check ~progress ~trials ~seed:(campaign_seed ~seed r) ())
  in
  of_outcome ~units:(Util.intervals ~n:o.Diff.trials_run !stamps) ~wall o

(* Modelled cycles per lockstep op (prelude ops included), read off a
   clock-free profile of campaign 0: every op is one "op.*" root span. *)
let op_cycles spans =
  List.fold_left
    (fun (n, c) nd ->
      if String.starts_with ~prefix:"op." nd.Span.sp_name then (n + 1, c + nd.Span.sp_cycles)
      else (n, c))
    (0, 0) spans

(* Campaigns the model statistics cover: a few hundred trials keep
   cycles per op comparable across seeds. *)
let model_campaigns = 2

(** Cycles per op over profiled re-runs of the first [model_campaigns]
    campaigns; [profile r] re-runs campaign [r] profiled. *)
let profiled_model ~profile reps =
  let runs = List.init model_campaigns (fun r -> (r, profile r)) in
  let n, cycles =
    List.fold_left
      (fun (n, c) (_, (_, spans)) ->
        let n', c' = op_cycles spans in
        (n + n', c + c'))
      (0, 0) runs
  in
  {
    kcycles_per_op = Some (float_of_int cycles /. float_of_int (max 1 n) /. 1000.);
    sojourn_p50_kcycles = None;
    sojourn_p99_kcycles = None;
    model_digest =
      Util.digest
        (Printf.sprintf "%s op_spans=%d cycles=%d"
           (String.concat " " (List.map (fun (_, (rep, _)) -> rep.digest) runs))
           n cycles);
    consistent = List.for_all (fun (r, (rep, _)) -> reproduces reps r rep) runs;
  }

let model ~trials ~seed reps =
  profiled_model reps ~profile:(fun r ->
      let o = check ~profile:true ~trials ~seed:(campaign_seed ~seed r) () in
      (of_outcome ~units:[||] ~wall:0. o, o.Diff.spans))

(* Campaign.check at -j 1, replicated trial by trial: the same seeds,
   worlds, op lists and per-trial coverage, stopping at the first
   divergent trial as the pool does. *)
let traced ~trials (l : Layers.t) ~seed r =
  let root = campaign_seed ~seed r in
  let t0 = Util.now () and est0 = l.Layers.est_secs in
  let units = Util.Samples.create () in
  let covers = ref [] and ops = ref 0 and divergent = ref false in
  let i = ref 0 in
  while (not !divergent) && !i < trials do
    let u0 = Util.now () and e0 = l.Layers.est_secs and x0 = Layers.explained l in
    let s = Campaign.trial_seed ~root !i in
    let w =
      Layers.named l.Layers.make_world (fun () -> Diff.make_world ~npages ~seed:s ())
    in
    let cover = Cover.create () in
    Cover.merge_into cover (Diff.world_cover w);
    let op_list =
      Layers.named l.Layers.gen (fun () -> Diff.gen_ops w ~seed:s ~n:ops_per_trial)
    in
    let cache = Komodo_spec.Abs.cache () in
    let rec go rs k = function
      | [] -> k
      | op :: rest -> (
          match Lockstep.step ~cover ~apply:l.Layers.apply l ~cache rs k op with
          | Ok rs' -> go rs' (k + 1) rest
          | Error d ->
              divergent := true;
              d.Diff.index)
    in
    ops := !ops + go (Diff.initial_rstate w) 0 op_list;
    covers := cover :: !covers;
    let dt = Util.now () -. u0 -. (l.Layers.est_secs -. e0) in
    Util.Samples.add units dt;
    Layers.unit_done l ~x0 dt;
    incr i
  done;
  let cover = Layers.named l.Layers.merge (fun () -> Agg.covers (List.rev !covers)) in
  l.Layers.ops <- l.Layers.ops + !ops;
  let digest, summary = report ~trials:!i ~ops:!ops ~divergent:!divergent cover in
  {
    ops = !ops;
    attempted = !i;
    failed = (if !divergent then 1 else 0);
    units = Util.Samples.to_array units;
    wall = Util.now () -. t0 -. (l.Layers.est_secs -. est0);
    digest;
    summary;
  }

let make ~trials =
  {
    name = "check";
    unit_name = "trial";
    ops_name = "lockstep ops";
    setup = (fun ~seed k -> ignore (check ~trials:8 ~seed:(setup_seed ~seed k) ()));
    run = run ~trials;
    model = model ~trials;
    traced = traced ~trials;
  }

let workload = make ~trials:200
