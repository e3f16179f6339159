(** Exhaustive-exploration benchmark: exact reachable-set sizes plus a
    states/sec wallclock figure.

    Runs the two frozen small-world configurations at [-j 1] and emits
    their exact state/edge/per-level counts — pure functions of the
    (pages, depth) configuration, byte-diffed in [BENCH_explore.json]
    against the committed baseline. Any drift means the alphabet, the
    prelude, the canonical hash, or the spec's error semantics changed.
    Wallclock throughput is emitted only under [wall_]-prefixed labels,
    which `komodo bench --compare` skips. *)

module Explore = Komodo_spec.Explore
module Campaign = Komodo_campaign.Campaign

let configs = [ (6, 8); (7, 5) ]

let run () =
  Report.print_header "Exhaustive exploration (exact counts, states/sec)";
  let rows =
    List.map
      (fun (pages, depth) ->
        let config = { Explore.pages; depth; seed = 42; mutate = None } in
        let t0 = Unix.gettimeofday () in
        let r = Campaign.explore ~jobs:1 ~config () in
        let wall = Unix.gettimeofday () -. t0 in
        (match r.Explore.x_violation with
        | None -> ()
        | Some v ->
            Printf.printf "EXPLORE VIOLATION (%d pages, depth %d): %s\n" pages
              depth v.Explore.v_reason;
            exit 1);
        let rate =
          if wall > 0. then float_of_int r.Explore.x_edges /. wall else 0.
        in
        [
          Printf.sprintf "%dp d%d" pages depth;
          string_of_int r.Explore.x_states;
          string_of_int r.Explore.x_edges;
          String.concat ";" (List.map string_of_int r.Explore.x_levels);
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" rate;
        ])
      configs
  in
  Report.print_table ~json_name:"explore" ~host_columns:[ "wall_s"; "wall_edges_per_s" ]
    ~columns:
      [ "world"; "states"; "edges"; "levels"; "wall_s"; "wall_edges_per_s" ]
    rows
