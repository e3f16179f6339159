(** Span determinism (the `profile` section).

    Profiles the fixed regression-anchor check campaign (200 trials,
    seed 7) with the span recorder at -j 1 and -j 2: the two passes
    must aggregate to a byte-identical span tree. Clock-free recorders
    are pure functions of the instrumented execution, so parallelism
    cannot show through. The span and modelled-cycle totals land in
    BENCH_profile.json and are compared exactly. *)

module Diff = Komodo_spec.Diff
module Span = Komodo_telemetry.Span
module Json = Komodo_telemetry.Json
module Campaign = Komodo_campaign.Campaign

let seed = 7
let trials = 200

let run () =
  Report.print_header "Span determinism";
  let campaign ~jobs =
    let o = Campaign.check ~profile:true ~jobs ~trials ~seed () in
    (match o.Diff.divergence with
    | None -> ()
    | Some (tseed, _, d) ->
        Printf.printf "DIVERGENCE (trial seed %d): %s\n" tseed
          (Diff.pp_divergence d);
        exit 1);
    o
  in
  let prof = campaign ~jobs:1 in
  let prof2 = campaign ~jobs:2 in
  let tree1 = Span.render_tree (Span.aggregate prof.Diff.spans) in
  let tree2 = Span.render_tree (Span.aggregate prof2.Diff.spans) in
  if tree1 <> tree2 then begin
    print_endline "span tree differs between -j 1 and -j 2:";
    print_endline tree1;
    print_endline "--- vs ---";
    print_endline tree2;
    exit 1
  end;
  let spans_total = Span.total_spans prof.Diff.spans in
  let span_cycles =
    List.fold_left (fun a n -> a + n.Span.sp_cycles) 0 prof.Diff.spans
  in
  Printf.printf
    "span tree: %d spans, %d modelled cycles, identical at -j 1 and -j 2\n"
    spans_total span_cycles;
  Report.emit_json ~name:"profile"
    (Json.Obj
       [
         ("trials", Json.Int trials);
         ("spans_total", Json.Int spans_total);
         ("span_cycles", Json.Int span_cycles);
         ("tree_identical_j1_j2", Json.Bool true);
       ])
