(* The bounded exhaustive explorer (lib/spec/explore.ml) and its
   canonical state hashing (lib/spec/ahash.ml).

   Load-bearing properties:
   - canonical keys are a function of the logical state: op orders that
     converge on the same Astate produce identical keys (no map
     iteration-order or sharing leaks), frozen by golden hashes;
   - every seeded spec mutation is found exhaustively within a small
     bound, and each emitted counterexample trace replays through the
     differential checker as a concrete divergence;
   - exhaustive coverage dominates a random campaign's at the same
     world size;
   - state/edge counts are exact, frozen regression goldens;
   - reports are byte-identical at any -j, violations included. *)

module Aspec = Komodo_spec.Aspec
module Astate = Komodo_spec.Astate
module Ahash = Komodo_spec.Ahash
module Abs = Komodo_spec.Abs
module Cover = Komodo_spec.Cover
module Explore = Komodo_spec.Explore
module Diff = Komodo_spec.Diff
module Campaign = Komodo_campaign.Campaign
module Bugs = Komodo_core.Bugs
module Imap = Map.Make (Int)

let config ?mutate ~pages ~depth () =
  { Explore.pages; depth; seed = 42; mutate }

let run ?mutate ?(jobs = 2) ~pages ~depth () =
  Campaign.explore ~jobs ~config:(config ?mutate ~pages ~depth ()) ()

(* -- canonical hashing -------------------------------------------------- *)

(* Four pairwise-commuting ops on the prelude world: two insecure
   mappings at distinct VAs, two spare allocations of distinct pages.
   Any application order converges on the same logical state, so every
   order must serialise to the same canonical key. *)
let commuting_ops =
  [
    (Aspec.smc_map_insecure, [ 0; 0x3000 lor 3; 0x8000000 ]);
    (Aspec.smc_map_insecure, [ 0; 0x5000 lor 3; 0x8000000 ]);
    (Aspec.smc_alloc_spare, [ 0; 6 ]);
    (Aspec.smc_alloc_spare, [ 0; 7 ]);
  ]

let apply_smc st (call, args) =
  match
    Aspec.step_smc st
      ~probe:(fun _ _ -> false)
      ~contents:None ~call ~args
  with
  | Aspec.Done (st', err, _) ->
      if err <> Aspec.e_success then
        Alcotest.failf "setup op %s failed: %s" (Aspec.smc_name call)
          (Aspec.err_name err);
      st'
  | Aspec.Pending _ -> Alcotest.fail "setup op went pending"

let prelude_root ~pages =
  let w = Explore.make_world (config ~pages ~depth:0 ()) in
  (match Explore.prelude_violation w with
  | None -> ()
  | Some v -> Alcotest.failf "clean prelude violated: %s" v.Explore.v_reason);
  (Explore.root w).Explore.st

let prop_key_order_independent =
  QCheck.Test.make ~count:40
    ~name:"ahash: canonical key ignores op application order"
    (QCheck.make (QCheck.Gen.shuffle_l commuting_ops))
    (fun perm ->
      let base = prelude_root ~pages:8 in
      let reference = List.fold_left apply_smc base commuting_ops in
      let shuffled = List.fold_left apply_smc base perm in
      Astate.equal reference shuffled
      && String.equal (Ahash.key reference) (Ahash.key shuffled)
      && Int64.equal (Ahash.hash reference) (Ahash.hash shuffled))

let test_key_distinguishes () =
  let base = prelude_root ~pages:8 in
  let a = apply_smc base (List.nth commuting_ops 0) in
  let b = apply_smc base (List.nth commuting_ops 1) in
  Alcotest.(check bool)
    "different mappings, different keys" false
    (String.equal (Ahash.key a) (Ahash.key b))

(* Golden canonical hashes: freeze the serialisation format itself. Any
   change to Ahash.key (field order, separators, measurement encoding)
   or to the prelude breaks these on purpose. *)
let test_golden_hashes () =
  let boot6 = Astate.boot (Abs.plat ~npages:6) in
  Alcotest.(check string)
    "boot(6 pages) canonical hash" "af9d86849c24817b"
    (Ahash.hex (Ahash.hash boot6));
  let w = Explore.make_world (config ~pages:6 ~depth:0 ()) in
  Alcotest.(check string)
    "prelude root node hash" "c868c460bb30ec88"
    (Explore.node_hash (Explore.root w));
  let w7 = Explore.make_world (config ~pages:7 ~depth:0 ()) in
  Alcotest.(check string)
    "prelude root node hash, 7 pages" "4c007ebfc14bc3fd"
    (Explore.node_hash (Explore.root w7))

(* -- exhaustive search: clean worlds, exact counts ---------------------- *)

(* Frozen state/edge counts for two configurations. These are exact
   regression goldens: any change to the alphabet, the prelude, the
   dedup key or the error semantics moves them. *)
let check_counts r ~states ~edges ~levels =
  Alcotest.(check (option string))
    "no violation" None
    (Option.map (fun v -> v.Explore.v_reason) r.Explore.x_violation);
  Alcotest.(check int) "states" states r.Explore.x_states;
  Alcotest.(check int) "edges" edges r.Explore.x_edges;
  Alcotest.(check (list int)) "new states per level" levels r.Explore.x_levels

let test_exact_counts_6_8 () =
  check_counts (run ~pages:6 ~depth:8 ()) ~states:2801 ~edges:674741
    ~levels:[ 2; 4; 14; 34; 77; 186; 612; 1871 ]

let test_exact_counts_7_5 () =
  check_counts (run ~pages:7 ~depth:5 ()) ~states:530 ~edges:160336
    ~levels:[ 6; 13; 34; 116; 360 ]

(* -- determinism across -j ---------------------------------------------- *)

let report_fingerprint (r : Explore.report) =
  Printf.sprintf "states=%d edges=%d levels=[%s] violation=%s"
    r.Explore.x_states r.Explore.x_edges
    (String.concat ";" (List.map string_of_int r.Explore.x_levels))
    (match r.Explore.x_violation with
    | None -> "none"
    | Some v -> String.concat " / " (Explore.render_violation v))

let test_jobs_deterministic () =
  let a = run ~jobs:1 ~pages:7 ~depth:4 () in
  let b = run ~jobs:4 ~pages:7 ~depth:4 () in
  Alcotest.(check string)
    "clean reports identical at -j 1 / -j 4" (report_fingerprint a)
    (report_fingerprint b);
  Alcotest.(check bool) "covers identical" true
    (Cover.equal a.Explore.x_cover b.Explore.x_cover)

let test_jobs_deterministic_violation () =
  let a = run ~mutate:Bugs.No_monitor_image_check ~jobs:1 ~pages:7 ~depth:2 () in
  let b = run ~mutate:Bugs.No_monitor_image_check ~jobs:4 ~pages:7 ~depth:2 () in
  Alcotest.(check string)
    "violating reports identical at -j 1 / -j 4" (report_fingerprint a)
    (report_fingerprint b);
  Alcotest.(check bool) "violation found" true (a.Explore.x_violation <> None)

(* -- mutation matrix ----------------------------------------------------- *)

(* Every seeded spec bug must be found exhaustively within the small
   bound, and its shortest counterexample must replay through the
   differential checker as a concrete divergence — the cross-validation
   loop: abstract search finds it, the real monitor confirms it. *)
let test_mutation_matrix () =
  List.iter
    (fun m ->
      let name = Bugs.name m in
      let cfg = config ~mutate:m ~pages:7 ~depth:3 () in
      let r = Campaign.explore ~jobs:2 ~config:cfg () in
      let v =
        match r.Explore.x_violation with
        | Some v -> v
        | None -> Alcotest.failf "mutation %s survived exhaustive search" name
      in
      (match m with
      | Bugs.Drop_refcount ->
          Alcotest.(check bool)
            (name ^ ": violates in the prelude") true v.Explore.v_prelude
      | _ ->
          Alcotest.(check int) (name ^ ": found at depth 1") 1 v.Explore.v_depth);
      let lines = Campaign.explore_trace cfg v in
      Alcotest.(check bool)
        (name ^ ": trace carries the schema tag") true
        (Komodo_campaign.Trace.is_trace lines);
      match Campaign.replay_explore_trace lines with
      | Error e -> Alcotest.failf "%s: trace does not replay: %s" name e
      | Ok (Explore.Clean n) ->
          Alcotest.failf
            "%s: counterexample replayed clean over %d ops (no concrete \
             divergence)"
            name n
      | Ok (Explore.Diverged _) -> ())
    (List.filter (fun b -> Bugs.layer b = Bugs.Spec) Bugs.all)

(* A clean world's prelude must replay clean through the differential
   checker (trace round-trip with no violation on board). *)
let test_clean_trace_replays () =
  let cfg = config ~pages:7 ~depth:0 () in
  let w = Explore.make_world cfg in
  let v =
    {
      Explore.v_prelude = false;
      v_depth = 0;
      v_reason = "synthetic: clean prelude replay";
      v_ops = Explore.prelude_xops w;
    }
  in
  match Campaign.replay_explore_trace (Campaign.explore_trace cfg v) with
  | Ok (Explore.Clean n) -> Alcotest.(check int) "all prelude ops matched" 5 n
  | Ok (Explore.Diverged d) ->
      Alcotest.failf "clean prelude diverged: %s" (Diff.pp_divergence d)
  | Error e -> Alcotest.failf "clean trace does not parse: %s" e

(* -- exhaustive vs random coverage -------------------------------------- *)

(* A depth-bounded exhaustive run must dominate a 200-trial random
   campaign at the same world size: every (call, error) pair and every
   page-type transition the random checker stumbles on, the explorer
   visits by construction. *)
let test_cover_dominates_random () =
  let explore = run ~jobs:4 ~pages:24 ~depth:4 () in
  Alcotest.(check (option string))
    "exhaustive run is clean" None
    (Option.map (fun v -> v.Explore.v_reason) explore.Explore.x_violation);
  let random = Campaign.check ~npages:24 ~jobs:4 ~trials:200 ~seed:42 () in
  (match random.Diff.divergence with
  | None -> ()
  | Some (_, _, d) ->
      Alcotest.failf "random campaign diverged: %s" (Diff.pp_divergence d));
  let missing =
    Cover.dominates explore.Explore.x_cover random.Diff.cover
  in
  Alcotest.(check (list string))
    "explore cover is a superset of the random campaign's" []
    (List.map (fun (kind, point) -> kind ^ ":" ^ point) missing)

(* -- the key serialiser against its Printf reference ------------------- *)

(* A Printf serialiser of the byte format the golden hashes freeze,
   kept as the reference Ahash.key must match. *)
let reference_key (t : Astate.t) =
  let b = Buffer.create 256 in
  let add_page = function
    | Astate.Afree -> Buffer.add_string b "f"
    | Astate.Aaddrspace a ->
        let st = match a.Astate.st with Astate.Sinit -> 0 | Sfinal -> 1 | Sstopped -> 2 in
        let d =
          match Astate.meas_digest a.Astate.meas with
          | Some d ->
              String.concat "" (List.init 32 (fun i -> Printf.sprintf "%02x" (Char.code d.[i])))
          | None -> Alcotest.fail "opaque transcript in an explored state"
        in
        Printf.bprintf b "A%d,%d,%d,%s" a.Astate.l1pt a.Astate.refcount st d
    | Astate.Athread th ->
        Printf.bprintf b "T%d,%d,%d%d%d,%d" th.Astate.tasp th.Astate.entry
          (Bool.to_int th.Astate.entered) (Bool.to_int th.Astate.has_ctx)
          (Bool.to_int th.Astate.has_fault_ctx)
          (match th.Astate.dispatcher with None -> -1 | Some d -> d)
    | Astate.Al1 { asp; slots } ->
        Printf.bprintf b "1%d[" asp;
        List.iter (fun (i, pg) -> Printf.bprintf b "%d>%d;" i pg) (Imap.bindings slots);
        Buffer.add_char b ']'
    | Astate.Al2 { asp; slots } ->
        Printf.bprintf b "2%d[" asp;
        List.iter
          (fun (i, pte) ->
            match pte with
            | Astate.Psec (pg, p) ->
                Printf.bprintf b "%d>s%d%d%d;" i pg (Bool.to_int p.Astate.w)
                  (Bool.to_int p.Astate.x)
            | Astate.Pins (pa, p) ->
                Printf.bprintf b "%d>i%d%d%d;" i pa (Bool.to_int p.Astate.w)
                  (Bool.to_int p.Astate.x))
          (Imap.bindings slots);
        Buffer.add_char b ']'
    | Astate.Adata { asp } -> Printf.bprintf b "D%d" asp
    | Astate.Aspare { asp } -> Printf.bprintf b "S%d" asp
  in
  Printf.bprintf b "P%d" t.Astate.plat.Astate.npages;
  for n = 0 to t.Astate.plat.Astate.npages - 1 do
    Buffer.add_char b '|';
    add_page (Astate.get t n)
  done;
  Buffer.contents b

(* Every state of the 7-page, depth-4 search (its root and all 169 it
   discovers) serialises exactly as the reference does. *)
let test_key_matches_reference () =
  let w = Explore.make_world (config ~pages:7 ~depth:4 ()) in
  let root = Explore.root w in
  let visited = Hashtbl.create 256 in
  Hashtbl.add visited (Explore.node_key root) ();
  let differing = ref [] in
  let check (nd : Explore.snode) =
    let st = nd.Explore.st in
    if not (String.equal (Ahash.key st) (reference_key st)) then
      differing := reference_key st :: !differing
  in
  check root;
  let rec level d frontier =
    if d < 4 then begin
      let sh =
        Explore.expand_range w ~visited:(Hashtbl.mem visited) ~frontier ~lo:0
          ~hi:(Array.length frontier)
      in
      List.iter (fun (key, nd, _, _) -> Hashtbl.add visited key (); check nd) sh.Explore.sh_new;
      level (d + 1) (Array.of_list (List.map (fun (_, nd, _, _) -> nd) sh.Explore.sh_new))
    end
  in
  level 0 [| root |];
  Alcotest.(check int) "states searched" (1 + 6 + 13 + 34 + 116) (Hashtbl.length visited);
  Alcotest.(check (list string)) "keys that differ from the reference" [] !differing

(* -- suite -------------------------------------------------------------- *)

let suite =
  [
    Testlib.qcheck prop_key_order_independent;
    Alcotest.test_case "ahash: distinct states get distinct keys" `Quick
      test_key_distinguishes;
    Alcotest.test_case "ahash: golden canonical hashes" `Quick
      test_golden_hashes;
    Alcotest.test_case "explore: exact counts, 6 pages depth 8" `Quick
      test_exact_counts_6_8;
    Alcotest.test_case "explore: exact counts, 7 pages depth 5" `Quick
      test_exact_counts_7_5;
    Alcotest.test_case "explore: -j 1 and -j 4 byte-identical" `Quick
      test_jobs_deterministic;
    Alcotest.test_case "explore: violations byte-identical across -j" `Quick
      test_jobs_deterministic_violation;
    Alcotest.test_case "explore: mutation matrix found + replays to \
                        divergence" `Quick test_mutation_matrix;
    Alcotest.test_case "explore: clean prelude trace replays clean" `Quick
      test_clean_trace_replays;
    Alcotest.test_case "explore: coverage dominates a 200-trial random \
                        campaign" `Slow test_cover_dominates_random;
    Alcotest.test_case "ahash: key matches its Printf reference on a 7-page \
                        search" `Quick test_key_matches_reference;
  ]
