module Event = Komodo_telemetry.Event
module Imap = Map.Make (Int)

type report = {
  events : int;
  calls : int;
  violations : (int * string) list;
  final : Astate.t;
}

(* Transitions the spec predicts for a deterministic call: page numbers
   whose type name changed. *)
let spec_transitions before after =
  let n = before.Astate.plat.Astate.npages in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let f = Astate.type_name (Astate.get before i) and t = Astate.type_name (Astate.get after i) in
      go (i + 1) (if f = t then acc else (i, f, t) :: acc)
  in
  go 0 []

(* Lifecycle events the monitor reports for a call the spec completed
   with [err], as [Smc.handle] emits them: a successful InitAddrspace,
   Finalise or Stop, and a successful Remove of an address space. *)
let spec_lifecycle spec ~call ~args err =
  let arg1 = match args with a :: _ -> a | [] -> 0 in
  if err <> Aspec.e_success then []
  else if call = Aspec.smc_init_addrspace then [ (arg1, Event.Ls_init) ]
  else if call = Aspec.smc_finalise then [ (arg1, Event.Ls_finalise) ]
  else if call = Aspec.smc_stop then [ (arg1, Event.Ls_stop) ]
  else if call = Aspec.smc_remove then
    match Astate.get spec arg1 with Astate.Aaddrspace _ -> [ (arg1, Event.Ls_remove) ] | _ -> []
  else []

type st = {
  spec : Astate.t;
  pending : (int * int list) option;  (** Smc_entry awaiting its exit *)
  svc : (int * int) option;  (** open Svc_entry: its call, [trans] length then *)
  trans : (int * string * string) list;  (** transitions since that entry *)
  life : (int * Event.lifecycle_stage) list;  (** lifecycle events since that entry *)
  calls : int;
  violations : (int * string) list;
}

let violation st i msg = { st with violations = (i, msg) :: st.violations }
let show (p, f, t) = Printf.sprintf "page %d: %s -> %s" p f t

let check_transitions st i spec' observed =
  let expected = spec_transitions st.spec spec' in
  let missing = List.filter (fun tr -> not (List.mem tr observed)) expected in
  let surplus = List.filter (fun tr -> not (List.mem tr expected)) observed in
  let st =
    if missing = [] then st
    else
      violation st i
        ("spec retypes not in trace: " ^ String.concat "; " (List.map show missing))
  in
  if surplus = [] then st
  else
    violation st i
      ("trace retypes the spec does not predict: "
      ^ String.concat "; " (List.map show surplus))

let check_lifecycle st i expected =
  let show l =
    if l = [] then "none"
    else
      String.concat "; "
        (List.map (fun (asp, s) -> Printf.sprintf "%s %d" (Event.stage_name s) asp) l)
  in
  if expected = st.life then st
  else
    violation st i
      (Printf.sprintf "lifecycle events: spec predicts %s, trace has %s" (show expected)
         (show st.life))

let in_enclave_run st =
  match st.pending with
  | Some (c, _) -> c = Aspec.smc_enter || c = Aspec.smc_resume
  | None -> false

(* [what] may not happen while an SVC is open. *)
let no_open_svc st i what =
  match st.svc with
  | Some (c, _) -> violation st i (what ^ " inside open SVC " ^ Aspec.svc_name c)
  | None -> st

(* An Svc_exit closes the open Svc_entry of the same call. A successful
   MapData, InitL2PTable or UnmapData retypes exactly one page; any
   other SVC, and any failing one, retypes none. *)
let close_svc st i ~call ~err =
  let name = Aspec.svc_name in
  let retypes =
    [
      (Aspec.svc_map_data, ("sparepage", "datapage"));
      (Aspec.svc_init_l2ptable, ("sparepage", "l2ptable"));
      (Aspec.svc_unmap_data, ("datapage", "sparepage"));
    ]
  in
  match st.svc with
  | None -> violation st i "svc_exit without svc_entry"
  | Some (c, _) when c <> call ->
      violation st i (Printf.sprintf "svc_exit %s does not match svc_entry %s" (name call) (name c))
  | Some (_, n) -> (
      let got = List.filteri (fun k _ -> k >= n) st.trans in
      let want = if err = Aspec.e_success then List.assoc_opt call retypes else None in
      match (want, got) with
      | None, [] -> st
      | Some (f, t), [ (_, f', t') ] when f = f' && t = t' -> st
      | _ ->
          violation st i
            (Printf.sprintf "%s returned %s and retyped %s, but must retype %s" (name call)
               (Aspec.err_name err)
               (if got = [] then "nothing" else String.concat "; " (List.map show got))
               (match want with Some (f, t) -> "one page " ^ f ^ " -> " ^ t | None -> "nothing")))

(* Retypings observed during opaque enclave execution: the enclave may
   only reshape its own pages among spare/data/second-level table, and
   each retyping starts from the type the spec holds. *)
let apply_enclave_transitions st i asp spec =
  List.fold_left
    (fun (st, spec) (pg, from_t, to_t) ->
      let bad fmt = Printf.ksprintf (fun m -> (violation st i m, spec)) fmt in
      let in_range = pg >= 0 && pg < spec.Astate.plat.Astate.npages in
      match if in_range then Some (Astate.get spec pg) else None with
      | Some p when Astate.owner_of p = Some asp -> (
          if from_t <> Astate.type_name p then
            bad "enclave run retyped page %d from %s, but the spec holds it as %s" pg from_t
              (Astate.type_name p)
          else
            match to_t with
            | "sparepage" -> (st, Astate.set spec pg (Astate.Aspare { asp }))
            | "datapage" -> (st, Astate.set spec pg (Astate.Adata { asp }))
            | "l2ptable" -> (st, Astate.set spec pg (Astate.Al2 { asp; slots = Imap.empty }))
            | t -> bad "enclave run retyped page %d to %s: outside its authority" pg t)
      | _ -> bad "enclave run retyped page %d, which addrspace %d does not own" pg asp)
    (st, spec) st.trans

let step st i (ev : Event.t) =
  match ev with
  | Event.Smc_entry { call; args; _ } ->
      let st =
        match st.pending with
        | Some _ -> violation st i "nested smc_entry without smc_exit"
        | None -> st
      in
      { st with pending = Some (call, args); svc = None; trans = []; life = [] }
  | Event.Fault_injected _ -> st
  | Event.Page_transition _ | Event.Enclave_lifecycle _ | Event.Svc_entry _
  | Event.Svc_exit _ | Event.Exception _
    when st.pending = None ->
      violation st i (Event.kind_name ev ^ " outside any monitor call")
  | Event.Page_transition { page; from_type; to_type } ->
      let st =
        if in_enclave_run st && st.svc = None then
          violation st i "page_transition in an enclave run outside any SVC"
        else st
      in
      { st with trans = st.trans @ [ (page, from_type, to_type) ] }
  | Event.Enclave_lifecycle { addrspace; stage } ->
      { st with life = st.life @ [ (addrspace, stage) ] }
  | Event.Svc_entry { call; _ } ->
      let st = if in_enclave_run st then st else violation st i "svc_entry outside an enclave run" in
      { (no_open_svc st i "svc_entry") with svc = Some (call, List.length st.trans) }
  | Event.Svc_exit { call; err; _ } -> { (close_svc st i ~call ~err) with svc = None }
  | Event.Exception _ -> st
  | Event.Smc_exit { call; err; retval; _ } -> (
      match st.pending with
      | None -> violation st i "smc_exit without smc_entry"
      | Some (ecall, args) ->
          let st =
            { (no_open_svc st i "smc_exit") with pending = None; svc = None; calls = st.calls + 1 }
          in
          if ecall <> call then
            violation st i
              (Printf.sprintf "smc_exit call %d does not match entry %d" call ecall)
          else begin
            let probe _ _ = false in
            match Aspec.step_smc st.spec ~probe ~contents:None ~call ~args with
            | exception Aspec.Stuck msg -> violation st i ("spec stuck: " ^ msg)
            | Aspec.Done (spec', serr, sret) ->
                if serr <> err then
                  violation st i
                    (Printf.sprintf "error word: spec %s (%d), trace %s (%d)"
                       (Aspec.err_name serr) serr (Aspec.err_name err) err)
                else if sret <> retval then
                  violation st i
                    (Printf.sprintf "return value: spec 0x%x, trace 0x%x" sret retval)
                else
                  let st = check_transitions st i spec' st.trans in
                  let st = check_lifecycle st i (spec_lifecycle st.spec ~call ~args serr) in
                  { st with spec = spec' }
            | Aspec.Pending p -> (
                match Aspec.allowed_outcome err with
                | None ->
                    violation st i
                      (Printf.sprintf
                         "%s returned %s (%d): not a legal enclave outcome"
                         (Aspec.smc_name call) (Aspec.err_name err) err)
                | Some outcome ->
                    let stage = if p.Aspec.resume then Event.Ls_resume else Event.Ls_enter in
                    let st = check_lifecycle st i [ (p.Aspec.asp, stage) ] in
                    let spec' = Aspec.resolve st.spec p ~outcome in
                    let st, spec' = apply_enclave_transitions st i p.Aspec.asp spec' in
                    { st with spec = spec' })
          end)

(* Fields a trace states twice must agree with Table 1: a call's name
   is its number's, an error's name is its word's, and no event is
   stamped before cycle 0 or before the event ahead of it. A trace that
   breaks this was not written by the monitor; it is malformed input,
   not a refinement failure. *)
let validate (events : Event.stamped list) =
  let ( let* ) = Result.bind in
  let check i prev { Event.at; ev } =
    let named what n got expected =
      if got = expected then Ok ()
      else
        Error
          (Printf.sprintf "event %d: %s %s %d is named %S, not %S" i
             (Event.kind_name ev) what n got expected)
    in
    if at < 0 then Error (Printf.sprintf "event %d: negative cycle stamp %d" i at)
    else if at < prev then
      Error (Printf.sprintf "event %d: cycle stamp %d goes back from %d" i at prev)
    else
      match ev with
      | Event.Smc_entry { call; name; _ } -> named "call" call name (Aspec.smc_name call)
      | Event.Svc_entry { call; name } -> named "call" call name (Aspec.svc_name call)
      | Event.Smc_exit { call; name; err; err_name; _ } ->
          let* () = named "call" call name (Aspec.smc_name call) in
          named "error" err err_name (Aspec.err_name err)
      | Event.Svc_exit { call; name; err; err_name; _ } ->
          let* () = named "call" call name (Aspec.svc_name call) in
          named "error" err err_name (Aspec.err_name err)
      | Event.Page_transition _ | Event.Exception _ | Event.Enclave_lifecycle _
      | Event.Fault_injected _ ->
          Ok ()
  in
  let rec go i prev = function
    | [] -> Ok ()
    | e :: rest ->
        let* () = check i prev e in
        go (i + 1) e.Event.at rest
  in
  go 0 0 events

let replay ~npages (events : Event.stamped list) =
  let st0 =
    {
      spec = Astate.boot (Abs.plat ~npages);
      pending = None;
      svc = None;
      trans = [];
      life = [];
      calls = 0;
      violations = [];
    }
  in
  let st, n =
    List.fold_left
      (fun (st, i) { Event.ev; _ } -> (step st i ev, i + 1))
      (st0, 0) events
  in
  let st =
    match st.pending with
    | Some (call, _) -> violation st n ("trace ends inside SMC " ^ Aspec.smc_name call)
    | None -> st
  in
  { events = n; calls = st.calls; violations = List.rev st.violations; final = st.spec }

let check ~npages events = Result.map (fun () -> replay ~npages events) (validate events)

let replay_file ~npages path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> Result.bind (Event.parse_trace contents) (check ~npages)
