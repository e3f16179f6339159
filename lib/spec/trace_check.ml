module Event = Komodo_telemetry.Event
module Imap = Map.Make (Int)

type report = {
  events : int;
  calls : int;
  violations : (int * string) list;
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

type st = {
  spec : Astate.t;
  pending : (int * int list) option;  (** Smc_entry awaiting its exit *)
  trans : (int * string * string) list;  (** transitions since that entry *)
  calls : int;
  violations : (int * string) list;
}

let violation st i msg = { st with violations = (i, msg) :: st.violations }

let check_transitions st i spec' observed =
  let expected = spec_transitions st.spec spec' in
  let show (p, f, t) = Printf.sprintf "page %d: %s -> %s" p f t in
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

(* Retypings observed during opaque enclave execution: the enclave may
   only reshape its own pages among spare/data/second-level table. *)
let apply_enclave_transitions st i asp spec =
  List.fold_left
    (fun (st, spec) (pg, _, to_t) ->
      let owned =
        pg >= 0
        && pg < spec.Astate.plat.Astate.npages
        && Astate.owner_of (Astate.get spec pg) = Some asp
      in
      if not owned then
        ( violation st i
            (Printf.sprintf
               "enclave run retyped page %d, which addrspace %d does not own" pg asp),
          spec )
      else
        match to_t with
        | "sparepage" -> (st, Astate.set spec pg (Astate.Aspare { asp }))
        | "datapage" -> (st, Astate.set spec pg (Astate.Adata { asp }))
        | "l2ptable" ->
            (st, Astate.set spec pg (Astate.Al2 { asp; slots = Imap.empty }))
        | t ->
            ( violation st i
                (Printf.sprintf "enclave run retyped page %d to %s: outside its authority"
                   pg t),
              spec ))
    (st, spec) st.trans

let step st i (ev : Event.t) =
  match ev with
  | Event.Smc_entry { call; args; _ } ->
      let st =
        match st.pending with
        | Some _ -> violation st i "nested smc_entry without smc_exit"
        | None -> st
      in
      { st with pending = Some (call, args); trans = [] }
  | Event.Page_transition { page; from_type; to_type } ->
      if st.pending = None then
        violation st i "page_transition outside any monitor call"
      else { st with trans = st.trans @ [ (page, from_type, to_type) ] }
  | Event.Smc_exit { call; err; retval; _ } -> (
      match st.pending with
      | None -> violation st i "smc_exit without smc_entry"
      | Some (ecall, args) ->
          let st = { st with pending = None; calls = st.calls + 1 } in
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
                  { st with spec = spec' }
            | Aspec.Pending p -> (
                match Aspec.allowed_outcome err with
                | None ->
                    violation st i
                      (Printf.sprintf
                         "%s returned %s (%d): not a legal enclave outcome"
                         (Aspec.smc_name call) (Aspec.err_name err) err)
                | Some outcome ->
                    let spec' = Aspec.resolve st.spec p ~outcome in
                    let st, spec' = apply_enclave_transitions st i p.Aspec.asp spec' in
                    { st with spec = spec' })
          end)
  | Event.Svc_entry _ | Event.Svc_exit _ | Event.Exception _
  | Event.Enclave_lifecycle _ | Event.Fault_injected _ ->
      st

(* Fields a trace states twice must agree with Table 1: a call's name
   is its number's, an error's name is its word's, and no event is
   stamped before cycle 0. A trace that breaks this was not written by
   the monitor; it is malformed input, not a refinement failure. *)
let validate (events : Event.stamped list) =
  let ( let* ) = Result.bind in
  let check i { Event.at; ev } =
    let named what n got expected =
      if got = expected then Ok ()
      else
        Error
          (Printf.sprintf "event %d: %s %s %d is named %S, not %S" i
             (Event.kind_name ev) what n got expected)
    in
    if at < 0 then Error (Printf.sprintf "event %d: negative cycle stamp %d" i at)
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
  let rec go i = function
    | [] -> Ok ()
    | e :: rest ->
        let* () = check i e in
        go (i + 1) rest
  in
  go 0 events

let replay ~npages (events : Event.stamped list) =
  let st0 =
    {
      spec = Astate.boot (Abs.plat ~npages);
      pending = None;
      trans = [];
      calls = 0;
      violations = [];
    }
  in
  let st, n =
    List.fold_left
      (fun (st, i) { Event.ev; _ } -> (step st i ev, i + 1))
      (st0, 0) events
  in
  { events = n; calls = st.calls; violations = List.rev st.violations }

let replay_file ~npages path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> (
      match Event.parse_trace contents with
      | Error e -> Error e
      | Ok events -> Result.map (fun () -> replay ~npages events) (validate events))
