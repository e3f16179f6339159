(* The campaign engine (see the interface). Trials are independent
   worlds keyed only by a seed, derived purely from (root_seed,
   trial_index) via Seedsplit, run on a Pool of domains, and reduced by
   the driver with sequential semantics. On failure, remaining
   (higher-index) trials are cancelled and the lowest failing trial is
   re-shrunk from its seed on the calling domain — shrinking is a
   serial greedy loop and parallel workers would only race it. *)

module Json = Komodo_telemetry.Json
module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive

let default_jobs = Pool.default_jobs
let trial_seed ~root index = Komodo_rand.Seedsplit.derive ~root index
let resolve_jobs = function Some j when j > 0 -> j | _ -> default_jobs ()
let ( let* ) = Result.bind

module type DRIVER = sig
  val kind : string

  type config
  type op
  type failure
  type trial
  type outcome

  val layers : Komodo_core.Bugs.layer list
  val validate : config -> (unit, string) result
  val run_trial : config -> seed:int -> trial
  val failed : trial -> bool
  val shrink : config -> seed:int -> (op list * failure) option
  val reduce : trial list -> (int * op list * failure) option -> outcome
  val counters : trial -> (string * int) list
  val header : config -> (string * Json.t) list
  val of_header : Json.t -> (config, string) result
  val op_to_json : op -> Json.t
  val op_of_json : config -> Json.t -> (op, string) result
end

module Make (D : DRIVER) = struct
  let run ?progress ?jobs cfg ~trials ~seed =
    let tseed = trial_seed ~root:seed in
    let on_trial =
      Option.map
        (fun p _ t -> Progress.trial p ~failed:(D.failed t) (D.counters t))
        progress
    in
    let report =
      match
        Pool.run
          ~label:(fun i -> Printf.sprintf "%s trial %d (seed %d)" D.kind i (tseed i))
          ?on_trial ~jobs:(resolve_jobs jobs) ~trials ~failed:D.failed
          (fun i -> D.run_trial cfg ~seed:(tseed i))
      with
      | Pool.Completed all -> D.reduce (Array.to_list all) None
      | Pool.Stopped { prefix; index; failure } -> (
          let s = tseed index in
          match D.shrink cfg ~seed:s with
          | Some (ops, f) ->
              D.reduce (Array.to_list prefix @ [ failure ]) (Some (s, ops, f))
          | None ->
              failwith
                (Printf.sprintf
                   "campaign: %s trial %d (seed %d) failed in the pool but \
                    not when re-run for shrinking — the trial is not a pure \
                    function of its seed"
                   D.kind index s))
    in
    Option.iter Progress.finish progress;
    report

  let to_trace ~seed cfg ops =
    Trace.to_lines ~kind:D.kind ~seed (D.header cfg) (List.map D.op_to_json ops)

  let of_trace lines =
    let* seed, h, ops = Trace.of_lines ~kind:D.kind lines in
    let* cfg = D.of_header h in
    let* () = D.validate cfg in
    let* ops = Json.all ~what:"op" (D.op_of_json cfg) ops in
    Ok (seed, cfg, ops)
end

module Check = Make (Diff)
module Fault = Make (Drive)

let check ?bug ?(npages = Diff.default.npages)
    ?(ops_per_trial = Diff.default.ops_per_trial) ?(metrics = false)
    ?(profile = false) ?clock ?progress ?jobs ~trials ~seed () =
  Check.run ?progress ?jobs
    { Diff.bug; npages; ops_per_trial; metrics; profile; clock }
    ~trials ~seed

let fault ?(npages = Drive.default.npages)
    ?(ops_per_trial = Drive.default.ops_per_trial) ?(profile = false) ?clock
    ?progress ?bug ?jobs ~faults ~trials ~seed () =
  Fault.run ?progress ?jobs
    { Drive.npages; ops_per_trial; profile; clock; bug; faults }
    ~trials ~seed

(* -- exhaustive exploration (komodo explore) ----------------------------- *)

module Explore = Komodo_spec.Explore
module Cover = Komodo_spec.Cover

(* Frontier slice size per pool shard. Small enough that violation
   localisation stays tight, large enough that shard overhead is noise
   against ~1k checked edges per node. *)
let explore_chunk = 64

let explore ?progress ?jobs ~(config : Explore.config) () : Explore.report =
  let jobs = resolve_jobs jobs in
  let w = Explore.make_world config in
  let cover = Cover.create () in
  Cover.merge_into cover (Explore.prelude_cover w);
  let root = Explore.root w in
  let root_key = Explore.node_key root in
  (* visited: key -> unit, written only between levels; parents: key ->
     (parent key, op) for shortest-path reconstruction. BFS discovery
     order guarantees the recorded parent chain is a shortest path. *)
  let visited = Hashtbl.create 4096 in
  let parents = Hashtbl.create 4096 in
  Hashtbl.add visited root_key ();
  let path_to key =
    let rec go key acc =
      match Hashtbl.find_opt parents key with
      | None -> acc
      | Some (pk, x) -> go pk (x :: acc)
    in
    go key []
  in
  let edges = ref (Explore.prelude_edges w) in
  let levels = ref [] in
  let violation = ref (Explore.prelude_violation w) in
  let frontier = ref [| root |] in
  (* Each frontier node's key, kept from the level that found it. *)
  let frontier_keys = ref [| root_key |] in
  let depth = ref 0 in
  while !violation = None && !depth < config.depth && Array.length !frontier > 0 do
    incr depth;
    let front = !frontier and front_keys = !frontier_keys in
    let n = Array.length front in
    let nshards = (n + explore_chunk - 1) / explore_chunk in
    let run i =
      let lo = i * explore_chunk and hi = min n ((i + 1) * explore_chunk) in
      Explore.expand_range w ~visited:(Hashtbl.mem visited) ~frontier:front ~lo
        ~hi
    in
    let shards =
      match
        Pool.run
          ~label:(fun i -> Printf.sprintf "explore level %d shard %d" !depth i)
          ~jobs ~trials:nshards
          ~failed:(fun sh -> sh.Explore.sh_violation <> None)
          run
      with
      | Pool.Completed arr -> Array.to_list arr
      | Pool.Stopped { prefix; failure; _ } ->
          Array.to_list prefix @ [ failure ]
    in
    let lvl = Agg.explore shards in
    edges := !edges + lvl.Agg.el_edges;
    Cover.merge_into cover lvl.Agg.el_cover;
    List.iter
      (fun (key, _, pi, x) ->
        Hashtbl.add visited key ();
        Hashtbl.add parents key (front_keys.(pi), x))
      lvl.Agg.el_new;
    levels := List.length lvl.Agg.el_new :: !levels;
    (match lvl.Agg.el_violation with
    | None -> ()
    | Some (pi, x, reason) ->
        violation :=
          Some
            {
              Explore.v_prelude = false;
              v_depth = !depth;
              v_reason = reason;
              v_ops = Explore.prelude_xops w @ path_to front_keys.(pi) @ [ x ];
            });
    frontier :=
      Array.of_list (List.map (fun (_, nd, _, _) -> nd) lvl.Agg.el_new);
    frontier_keys :=
      Array.of_list (List.map (fun (key, _, _, _) -> key) lvl.Agg.el_new);
    (* The first level also carries the root state and the prelude's
       edges, so the summed counters are the running totals. *)
    let root, prelude = if !depth = 1 then (1, Explore.prelude_edges w) else (0, 0) in
    Option.iter
      (fun p ->
        Progress.trial p ~failed:(lvl.Agg.el_violation <> None)
          [
            ("states", root + List.length lvl.Agg.el_new);
            ("edges", prelude + lvl.Agg.el_edges);
          ])
      progress
  done;
  Option.iter Progress.finish progress;
  {
    Explore.x_states = Hashtbl.length visited;
    x_edges = !edges;
    x_levels = List.rev !levels;
    x_cover = cover;
    x_violation = !violation;
  }

(* -- explore counterexamples ------------------------------------------------ *)

(* An explore trace reuses the differential checker's header fields and
   op codec, plus the violation's depth and reason for the reader; only
   its world (see Explore.replay) and its page floor differ. *)
let explore_trace (cfg : Explore.config) (v : Explore.violation) =
  let c = { Diff.default with npages = cfg.pages; bug = cfg.mutate } in
  let found = [ ("depth", Json.Int v.Explore.v_depth); ("reason", Json.Str v.Explore.v_reason) ] in
  Trace.to_lines ~kind:"explore" ~seed:cfg.seed (Diff.header c @ found)
    (List.map Explore.op_to_json v.Explore.v_ops)

let replay_explore_trace lines =
  let* seed, h, ops = Trace.of_lines ~kind:"explore" lines in
  let* c = Diff.of_header h in
  let* () =
    Diff.check_npages ~min:Explore.min_pages ~why:"the prelude uses pages 0-5" c.npages
  in
  let* () = Komodo_core.Bugs.armable ~kind:"explore" Explore.layers c.bug in
  let* ops = Json.all ~what:"op" (Diff.op_of_json c) ops in
  Ok (Explore.replay ~seed c ops)
