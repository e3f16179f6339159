(* Coverage counters for the differential checker.

   Every listing this module exposes is canonical: hashtable iteration
   order (which depends on insertion order, and therefore on merge
   order when per-worker tables are combined) must never reach a
   report. Fixed call tables are listed in call-number order and every
   folded table is sorted before it escapes, so merging per-trial
   covers in any order yields byte-identical reports. *)

(* Tables hold count cells, so counting a point already seen (nearly
   every record on a hot path) is one lookup. Cells never leave the
   module: merging copies counts, never cells. (call, error word)
   points hash as two ints, not through the polymorphic hash. *)
module Points = Hashtbl.Make (struct
  type t = int * int

  let equal ((c1, e1) : t) (c2, e2) = c1 = c2 && e1 = e2
  let hash ((c, e) : t) = ((c * 65599) + e) land max_int
end)

type t = {
  smc : int ref Points.t; (* (call, err) -> count *)
  svc : int ref Points.t;
  trans : (string, int ref) Hashtbl.t;
}

let create () =
  { smc = Points.create 64; svc = Points.create 32; trans = Hashtbl.create 16 }

let bump find add tbl key n =
  match find tbl key with Some c -> c := !c + n | None -> add tbl key (ref n)

let incr tbl = bump Hashtbl.find_opt Hashtbl.add tbl
let count tbl = bump Points.find_opt Points.add tbl

let record_smc t ~call ~err = count t.smc (call, err) 1
let record_svc t ~call ~err = count t.svc (call, err) 1

let record_transition t ~from_type ~to_type =
  incr t.trans (from_type ^ "->" ^ to_type) 1

let call_count tbl call =
  Points.fold (fun (c, _) n acc -> if c = call then acc + !n else acc) tbl 0

let smc_covered t =
  List.map (fun c -> (Aspec.smc_name c, call_count t.smc c)) Aspec.smcs

let svc_covered t =
  List.map (fun c -> (Aspec.svc_name c, call_count t.svc c)) Aspec.svcs

(* All of a hashtable's bindings, sorted by key: the only way table
   contents may leave this module. *)
let sorted fold tbl = fold (fun k n acc -> (k, !n) :: acc) tbl [] |> List.sort compare
let sorted_bindings tbl = sorted Hashtbl.fold tbl
let sorted_points tbl = sorted Points.fold tbl

let errors_covered t =
  let errs = Hashtbl.create 24 in
  let add (_, e) n = incr errs e !n in
  Points.iter add t.smc;
  Points.iter add t.svc;
  sorted_bindings errs |> List.map (fun (e, n) -> (Aspec.err_name e, n))

let transitions t = sorted_bindings t.trans

let deficit tbl calls = List.filter (fun c -> call_count tbl c = 0) calls
let smc_deficit t = deficit t.smc Aspec.smcs
let svc_deficit t = deficit t.svc Aspec.svcs

let report t =
  let counts l =
    String.concat " " (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) l)
  in
  let hit l = List.length (List.filter (fun (_, c) -> c > 0) l) in
  let smc = smc_covered t and svc = svc_covered t in
  let errs = errors_covered t and trans = transitions t in
  [
    Printf.sprintf "SMC coverage (%d/%d calls): %s" (hit smc) (List.length smc)
      (counts smc);
    Printf.sprintf "SVC coverage (%d/%d calls): %s" (hit svc) (List.length svc)
      (counts svc);
    Printf.sprintf "error codes exercised (%d): %s" (List.length errs) (counts errs);
    Printf.sprintf "page transitions (%d): %s" (List.length trans) (counts trans);
  ]

let merge_into dst src =
  Points.iter (fun k n -> count dst.smc k !n) src.smc;
  Points.iter (fun k n -> count dst.svc k !n) src.svc;
  Hashtbl.iter (fun k n -> incr dst.trans k !n) src.trans

let equal a b =
  sorted_points a.smc = sorted_points b.smc
  && sorted_points a.svc = sorted_points b.svc
  && sorted_bindings a.trans = sorted_bindings b.trans

(* Coverage-point domination: every (call, error) pair and transition
   [small] observed at least once must appear in [big] (counts are
   irrelevant — an exhaustive run and a random campaign hit points with
   wildly different frequencies). Returned missing points are sorted by
   construction (sorted_bindings), so the listing is deterministic. *)
let dominates big small =
  let missing = ref [] in
  let miss kind rendered = missing := (kind, rendered) :: !missing in
  List.iter
    (fun ((call, err), n) ->
      if n > 0 && not (Points.mem big.smc (call, err)) then
        miss "smc" (Printf.sprintf "%s/%s" (Aspec.smc_name call) (Aspec.err_name err)))
    (sorted_points small.smc);
  List.iter
    (fun ((call, err), n) ->
      if n > 0 && not (Points.mem big.svc (call, err)) then
        miss "svc" (Printf.sprintf "%s/%s" (Aspec.svc_name call) (Aspec.err_name err)))
    (sorted_points small.svc);
  List.iter
    (fun (tr, n) ->
      if n > 0 && not (Hashtbl.mem big.trans tr) then miss "transition" tr)
    (sorted_bindings small.trans);
  List.rev !missing
