(** Hierarchical span profiler.

    A span covers one phase of monitor work — a whole SMC/SVC handler,
    its validation or commit half, a measurement hash, a page-table
    walk, a burst of user execution — and is attributed both in
    modelled cycles (the paper's currency, deterministic) and in
    wallclock nanoseconds (host cost, only when a [clock] is
    injected). Spans nest: the recorder keeps a stack of open frames
    and each closed frame becomes a child of the one below it.

    Mirroring {!Sink}, [Null] is a distinguished constructor: every
    instrumentation site guards on {!is_null} with a single branch,
    builds nothing, and charges no modelled cycles — with profiling
    off, cycle reports are bit-for-bit identical.

    The recorder is intentionally clock-free by default: without an
    injected [clock], wallclock fields are 0 and a recorded tree is a
    pure function of the instrumented execution — the determinism
    `komodo profile` relies on when diffing span trees across `-j`
    levels (wallclock fields are excluded from that identity).

    Error-path robustness: handlers unwind through early returns, so
    call sites snapshot {!depth} on entry and close with {!exit_to}
    rather than pairing every [enter] with an [exit_]. *)

type clock = unit -> float

(** One completed span. [sp_cycles] is the modelled-cycle delta across
    the span; [sp_wall_ns] is 0 unless the recorder has a clock.
    Children are in execution order. *)
type node = {
  sp_name : string;
  sp_start : int;
  sp_cycles : int;
  sp_wall_ns : int;
  sp_children : node list;
}

type frame = {
  f_name : string;
  f_start : int;
  f_wall : float;
  mutable f_children : node list; (* reversed *)
}

type state = {
  clock : clock option;
  mutable stack : frame list;
  mutable finished : node list; (* reversed completed roots *)
}

type recorder = Null | Rec of state

let null = Null
let create ?clock () = Rec { clock; stack = []; finished = [] }
let is_null = function Null -> true | Rec _ -> false

let now st = match st.clock with None -> 0.0 | Some c -> c ()

let enter r ~name ~cycles =
  match r with
  | Null -> ()
  | Rec st ->
      st.stack <-
        { f_name = name; f_start = cycles; f_wall = now st; f_children = [] }
        :: st.stack

let close st f ~cycles =
  let wall_ns =
    match st.clock with
    | None -> 0
    | Some c -> max 0 (int_of_float ((c () -. f.f_wall) *. 1e9))
  in
  let node =
    {
      sp_name = f.f_name;
      sp_start = f.f_start;
      sp_cycles = max 0 (cycles - f.f_start);
      sp_wall_ns = wall_ns;
      sp_children = List.rev f.f_children;
    }
  in
  match st.stack with
  | parent :: _ -> parent.f_children <- node :: parent.f_children
  | [] -> st.finished <- node :: st.finished

let exit_ r ~cycles =
  match r with
  | Null -> ()
  | Rec st -> (
      match st.stack with
      | [] -> () (* tolerated: unmatched exit on an error path *)
      | f :: rest ->
          st.stack <- rest;
          close st f ~cycles)

let depth = function Null -> 0 | Rec st -> List.length st.stack

let rec exit_to r ~depth:d ~cycles =
  match r with
  | Null -> ()
  | Rec st ->
      if List.length st.stack > d then begin
        exit_ r ~cycles;
        exit_to r ~depth:d ~cycles
      end

(** Close the current frame and open a sibling in one step — the
    validate-to-commit transition inside a handler. *)
let mark r ~name ~cycles =
  match r with
  | Null -> ()
  | Rec _ ->
      exit_ r ~cycles;
      enter r ~name ~cycles

let roots = function Null -> [] | Rec st -> List.rev st.finished

let reset = function
  | Null -> ()
  | Rec st ->
      st.stack <- [];
      st.finished <- []

(* -- Readout ------------------------------------------------------------ *)

let rec total_spans nodes =
  List.fold_left (fun a n -> a + 1 + total_spans n.sp_children) 0 nodes

let self_cycles n =
  let child = List.fold_left (fun a c -> a + c.sp_cycles) 0 n.sp_children in
  max 0 (n.sp_cycles - child)

(** Folded stacks, flamegraph-compatible: one ["a;b;c cycles"] line per
    distinct path, self cycles only, paths sorted — deterministic
    however the spans were collected. Zero-self paths are dropped. *)
let fold_stacks nodes =
  let tbl = Hashtbl.create 64 in
  let rec go prefix n =
    let path = if prefix = "" then n.sp_name else prefix ^ ";" ^ n.sp_name in
    let self = self_cycles n in
    if self > 0 then
      Hashtbl.replace tbl path
        ((match Hashtbl.find_opt tbl path with Some c -> c | None -> 0) + self);
    List.iter (go path) n.sp_children
  in
  List.iter (go "") nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let to_folded nodes =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, cycles) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" path cycles))
    (fold_stacks nodes);
  Buffer.contents buf

(** The span tree aggregated by path: same-named siblings merge, counts
    and attributions sum, children sort by name — the canonical
    deterministic rendering of a profile. *)
type agg = {
  a_name : string;
  a_count : int;
  a_cycles : int;
  a_wall_ns : int;
  a_children : agg list;
}

let rec aggregate nodes =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun n ->
      (match Hashtbl.find_opt tbl n.sp_name with
      | None ->
          order := n.sp_name :: !order;
          Hashtbl.add tbl n.sp_name (1, n.sp_cycles, n.sp_wall_ns, [ n ])
      | Some (c, cy, w, ns) ->
          Hashtbl.replace tbl n.sp_name
            (c + 1, cy + n.sp_cycles, w + n.sp_wall_ns, n :: ns)))
    nodes;
  Hashtbl.fold
    (fun name (c, cy, w, ns) acc ->
      {
        a_name = name;
        a_count = c;
        a_cycles = cy;
        a_wall_ns = w;
        a_children =
          aggregate (List.concat_map (fun n -> n.sp_children) (List.rev ns));
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.a_name b.a_name)

(** Render an aggregated tree, one span per line, cycles only (the
    deterministic face); [wall] adds a wallclock-microseconds column. *)
let render_tree ?(wall = false) aggs =
  let buf = Buffer.create 256 in
  let rec go indent aggs =
    List.iter
      (fun a ->
        let label = String.make (2 * indent) ' ' ^ a.a_name in
        Buffer.add_string buf
          (Printf.sprintf "%-44s %8d %14d" label a.a_count a.a_cycles);
        if wall then
          Buffer.add_string buf
            (Printf.sprintf " %12.1f" (float_of_int a.a_wall_ns /. 1e3));
        Buffer.add_char buf '\n';
        go (indent + 1) a.a_children)
      aggs
  in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %8s %14s%s\n" "span" "count" "cycles"
       (if wall then Printf.sprintf " %12s" "wall (us)" else ""));
  go 0 aggs;
  Buffer.contents buf

(** Per-span-name cycle histograms (every occurrence at any depth), for
    quantile tables; name-sorted. *)
let durations nodes =
  let tbl = Hashtbl.create 16 in
  let hist name =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        Hashtbl.add tbl name h;
        h
  in
  let rec go n =
    Hist.record (hist n.sp_name) n.sp_cycles;
    List.iter go n.sp_children
  in
  List.iter go nodes;
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) tbl [] |> List.sort compare
