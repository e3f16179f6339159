(* explore: bounded exhaustive search, Campaign.explore at 7 pages and
   depth 7. It runs only the abstract spec, state hashing, the edge
   oracles and visited-set dedup: no machine, monitor or abstraction
   work, so a change to those should not move it. The search is
   seed-independent (the seed only names the concrete replay world), so
   every campaign of a run is the same search. *)

module Campaign = Komodo_campaign.Campaign
module Agg = Komodo_campaign.Agg
module Explore = Komodo_spec.Explore
module Aspec = Komodo_spec.Aspec
module Diff = Komodo_spec.Diff
module Cover = Komodo_spec.Cover
module Astate = Komodo_spec.Astate
open Workload

let pages = 7

(* The campaign engine's frontier slice (Campaign.explore_chunk). *)
let chunk = 64

(* Re-call the expansion of every [sample]th node of a slice, with its
   spec steps and successor keys. *)
let sample = 4

let config ~depth ~seed = { Explore.pages; depth; seed; mutate = None }

let report ~states ~edges ~levels ~violated cover =
  let summary =
    Printf.sprintf "%d states, %d edges, levels [%s], %s" states edges
      (String.concat " " (List.map string_of_int levels))
      (if violated then "VIOLATION" else "no violation")
  in
  (Util.digest (summary ^ "\n" ^ String.concat "\n" (Cover.report cover)), summary)

(* Frontier size of each explored level: the root, then the states the
   previous level discovered. *)
let frontiers levels =
  let rec go f = function [] -> [] | n :: rest -> f :: go n rest in
  go 1 levels

(* The campaign reports per-level progress only, so a level's wall time
   is split evenly over its frontier slices. *)
let slice_units level_secs levels =
  Array.concat
    (List.mapi
       (fun d f ->
         let n = max 1 ((f + chunk - 1) / chunk) in
         Array.make n (level_secs.(d) /. float_of_int n))
       (frontiers levels))

let run ~depth ~seed _r =
  let clock, stamps = stamp_clock () in
  let progress = progress ~label:"explore" ~total:depth clock in
  let x, wall =
    Util.time (fun () -> Campaign.explore ~progress ~jobs:1 ~config:(config ~depth ~seed) ())
  in
  let levels = x.Explore.x_levels in
  let digest, summary =
    report ~states:x.Explore.x_states ~edges:x.Explore.x_edges ~levels
      ~violated:(x.Explore.x_violation <> None) x.Explore.x_cover
  in
  {
    ops = x.Explore.x_edges;
    attempted = x.Explore.x_edges;
    failed = (if x.Explore.x_violation = None then 0 else 1);
    units = slice_units (Util.intervals ~n:(List.length levels) !stamps) levels;
    wall;
    digest;
    summary;
  }

let model ~depth ~seed reps =
  let again = run ~depth ~seed 0 in
  {
    kcycles_per_op = None;
    sojourn_p50_kcycles = None;
    sojourn_p99_kcycles = None;
    model_digest = again.digest;
    consistent = reproduces reps 0 again;
  }

let zero_page = String.make 4096 '\000'

(* The MapSecure contents the explorer hands the spec: every valid
   source reads as a zero page after the prelude. *)
let contents (st : Astate.t) ~call ~args =
  if call <> Aspec.smc_map_secure then None
  else
    match args with
    | _ :: _ :: _ :: c :: _ ->
        let c = c land 0xffffffff in
        if c <> 0 && c land 0xfff = 0 && Astate.valid_insecure st.Astate.plat c then
          Some zero_page
        else None
    | _ -> None

(* A sampled node's edges, re-called in isolation as [Explore.expand_range]
   makes them: the spec step (resolving a forced Enter/Resume branch),
   then the dedup key of every successor that is a new node. Returns
   the keys. *)
let spec_steps (l : Layers.t) (nd : Explore.snode) xops =
  let src = nd.Explore.st in
  let probe st n = nd.Explore.probe_ok && n = Lockstep.probe_page && Diff.probe_shape st in
  List.concat_map
    (fun (x : Explore.xop) ->
      let call = x.Explore.call and args = x.Explore.args in
      let dst =
        Layers.estimate l l.Layers.aspec (fun () ->
            match
              Aspec.step_smc ~rng_exhausted:false src ~probe ~contents:(contents src ~call ~args)
                ~call ~args
            with
            | Aspec.Done (st', err, _) when err = Aspec.e_success && st' != src -> Some st'
            | Aspec.Done _ -> None
            | Aspec.Pending p -> Option.map (fun o -> Aspec.resolve src p ~outcome:o) x.Explore.forced
            | exception Aspec.Stuck _ -> None)
      in
      l.Layers.aspec_sampled <- l.Layers.aspec_sampled + 1;
      match dst with
      | None -> []
      | Some st' ->
          let probe_ok =
            nd.Explore.probe_ok && ((not (Diff.probe_shape src)) || Diff.probe_shape st')
          in
          [ Layers.estimate l l.Layers.key (fun () -> Explore.node_key { Explore.st = st'; probe_ok }) ])
    xops

(* Campaign.explore at -j 1, replicated level by level and slice by
   slice; each slice is one unit. *)
let traced ~depth:max_depth (l : Layers.t) ~seed _r =
  let t0 = Util.now () and est0 = l.Layers.est_secs in
  let w =
    Layers.named l.Layers.world (fun () -> Explore.make_world (config ~depth:max_depth ~seed))
  in
  let cover = Cover.create () in
  Cover.merge_into cover (Explore.prelude_cover w);
  let root = Explore.root w in
  let visited = Hashtbl.create 4096 in
  Hashtbl.add visited (Explore.node_key root) ();
  let units = Util.Samples.create () in
  let edges = ref (Explore.prelude_edges w) and levels = ref [] in
  let violated = ref (Explore.prelude_violation w <> None) in
  let frontier = ref [| root |] and depth = ref 0 in
  while (not !violated) && !depth < max_depth && Array.length !frontier > 0 do
    incr depth;
    let front = !frontier in
    let n = Array.length front in
    let keys = ref [] in
    let rec slices i acc =
      if i * chunk >= n then List.rev acc
      else begin
        let lo = i * chunk and hi = min n ((i + 1) * chunk) in
        let u0 = Util.now () and e0 = l.Layers.est_secs and x0 = Layers.explained l in
        let sh =
          Layers.named l.Layers.expand (fun () ->
              Explore.expand_range w ~visited:(Hashtbl.mem visited) ~frontier:front ~lo ~hi)
        in
        (* The sampled nodes' own expansions, scaled to the slice's
           edges, are the estimated layers inside the slice. *)
        let node0 = l.Layers.node.Layers.secs and n0 = l.Layers.aspec_sampled in
        for j = lo to hi - 1 do
          let xops = Layers.estimate l l.Layers.alphabet (fun () -> Explore.alphabet w front.(j)) in
          if (j - lo) mod sample = 0 then begin
            let one =
              Layers.estimate l l.Layers.node (fun () ->
                  Explore.expand_range w ~visited:(Hashtbl.mem visited) ~frontier:front ~lo:j
                    ~hi:(j + 1))
            in
            Layers.expect l
              (one.Explore.sh_edges = List.length xops && one.Explore.sh_violation = None)
              "a re-called node expansion differs from its alphabet";
            keys := spec_steps l front.(j) xops @ !keys
          end
        done;
        Layers.add_inner l [ l.Layers.node ] ~before:node0
          ~scale:
            (float_of_int sh.Explore.sh_edges
            /. float_of_int (max 1 (l.Layers.aspec_sampled - n0)));
        l.Layers.aspec_edges <- l.Layers.aspec_edges + sh.Explore.sh_edges;
        let dt = Util.now () -. u0 -. (l.Layers.est_secs -. e0) in
        Util.Samples.add units dt;
        Layers.unit_done l ~x0 dt;
        (* the pool stops a level at its lowest failing slice *)
        if sh.Explore.sh_violation <> None then List.rev (sh :: acc)
        else slices (i + 1) (sh :: acc)
      end
    in
    let shards = slices 0 [] in
    let lvl =
      Layers.named l.Layers.merge (fun () ->
          let lvl = Agg.explore shards in
          Cover.merge_into cover lvl.Agg.el_cover;
          List.iter (fun (key, _, _, _) -> Hashtbl.add visited key ()) lvl.Agg.el_new;
          lvl)
    in
    Layers.expect l
      (lvl.Agg.el_violation <> None || List.for_all (Hashtbl.mem visited) !keys)
      "a re-called successor key is missing from the visited set";
    let fresh = List.length lvl.Agg.el_new in
    edges := !edges + lvl.Agg.el_edges;
    l.Layers.new_states <- l.Layers.new_states + fresh;
    levels := fresh :: !levels;
    violated := lvl.Agg.el_violation <> None;
    frontier := Array.of_list (List.map (fun (_, nd, _, _) -> nd) lvl.Agg.el_new)
  done;
  l.Layers.ops <- l.Layers.ops + !edges;
  let digest, summary =
    report ~states:(Hashtbl.length visited) ~edges:!edges ~levels:(List.rev !levels)
      ~violated:!violated cover
  in
  {
    ops = !edges;
    attempted = !edges;
    failed = (if !violated then 1 else 0);
    units = Util.Samples.to_array units;
    wall = Util.now () -. t0 -. (l.Layers.est_secs -. est0);
    digest;
    summary;
  }

let make ~depth =
  {
    name = "explore";
    unit_name = "frontier slice";
    ops_name = "edges checked";
    setup =
      (fun ~seed k ->
        ignore
          (Campaign.explore ~jobs:1
             ~config:(config ~depth:(min depth 5) ~seed:(setup_seed ~seed k))
             ()));
    run = run ~depth;
    model = model ~depth;
    traced = traced ~depth;
  }

let workload = make ~depth:7
