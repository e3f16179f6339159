(** Exhaustive-exploration benchmark: exact reachable-set sizes.

    Runs the two frozen small-world configurations at [-j 1] and emits
    their exact state/edge/per-level counts — pure functions of the
    (pages, depth) configuration, byte-diffed in [BENCH_explore.json]
    against the committed baseline. Any drift means the alphabet, the
    prelude, the canonical hash, or the spec's error semantics
    changed. *)

module Explore = Komodo_spec.Explore
module Campaign = Komodo_campaign.Campaign

let configs = [ (6, 8); (7, 5) ]

let run () =
  Report.print_header "Exhaustive exploration (exact counts)";
  let rows =
    List.map
      (fun (pages, depth) ->
        let config = { Explore.pages; depth; seed = 42; mutate = None } in
        let r = Campaign.explore ~jobs:1 ~config () in
        (match r.Explore.x_violation with
        | None -> ()
        | Some v ->
            Printf.printf "EXPLORE VIOLATION (%d pages, depth %d): %s\n" pages
              depth v.Explore.v_reason;
            exit 1);
        [
          Printf.sprintf "%dp d%d" pages depth;
          string_of_int r.Explore.x_states;
          string_of_int r.Explore.x_edges;
          String.concat ";" (List.map string_of_int r.Explore.x_levels);
        ])
      configs
  in
  Report.print_table ~json_name:"explore"
    ~columns:[ "world"; "states"; "edges"; "levels" ]
    rows
