module Event = Komodo_telemetry.Event

type report = {
  events : int;
  calls : int;
  undecided : int;
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
  spec : Astate.t;  (** inside an enclave run, the state its SVCs left *)
  pending : (int * int list * (Aspec.result, string) result) option;
      (** Smc_entry awaiting its exit, and the spec's step from the state it entered with *)
  svc : (int * int list * int) option;  (** open Svc_entry: call, r1/r2, [trans] length then *)
  trans : (int * string * string) list;  (** transitions since the Smc_entry *)
  life : (int * Event.lifecycle_stage) list;  (** lifecycle events since the Smc_entry *)
  calls : int;
  undecided : int;
  violations : (int * string) list;
}

let violation st i msg = { st with violations = (i, msg) :: st.violations }
let show (p, f, t) = Printf.sprintf "page %d: %s -> %s" p f t

(* [observed] must be exactly the retypes from [st.spec] to [spec']. *)
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

let error_word st i what ~spec ~trace =
  violation st i
    (Printf.sprintf "%s: spec %s (%d), trace %s (%d)" what (Aspec.err_name spec) spec
       (Aspec.err_name trace) trace)

(* The Enter/Resume the spec validated, while its enclave runs. *)
let enclave_run st =
  match st.pending with Some (_, _, Ok (Aspec.Pending p)) -> Some p | _ -> None

(* [what] may not happen while an SVC is open. *)
let no_open_svc st i what =
  match st.svc with
  | Some (c, _, _) -> violation st i (what ^ " inside open SVC " ^ Aspec.svc_name c)
  | None -> st

(* An Svc_exit closes the open Svc_entry of the same call. Inside a
   validated run the spec steps the SVC from the state the run's
   earlier SVCs left: the trace's error word and retypes must be the
   spec's. Exit and ResumeFaulted are control flow and retype nothing.
   A GetRandom reporting [Entropy_exhausted] is counted undecided. *)
let close_svc st i ~call ~err =
  let name = Aspec.svc_name in
  match (st.svc, enclave_run st) with
  | None, _ -> violation st i "svc_exit without svc_entry"
  | Some (c, _, _), _ when c <> call ->
      violation st i (Printf.sprintf "svc_exit %s does not match svc_entry %s" (name call) (name c))
  | Some _, None -> st
  | Some (_, args, n), Some p -> (
      let got = List.filteri (fun k _ -> k >= n) st.trans in
      if call = Aspec.svc_exit || call = Aspec.svc_resume_faulted then
        check_transitions st i st.spec got
      else
        let arg k = Option.value (List.nth_opt args k) ~default:0 in
        let rng_exhausted = call = Aspec.svc_get_random && err = Aspec.e_entropy_exhausted in
        let st = if rng_exhausted then { st with undecided = st.undecided + 1 } else st in
        match
          Aspec.step_svc ~rng_exhausted st.spec ~asp:p.Aspec.asp ~thread:p.Aspec.th ~call
            ~a1:(arg 0) ~a2:(arg 1)
        with
        | exception Aspec.Stuck msg -> violation st i ("spec stuck: " ^ msg)
        | _, serr when serr <> err ->
            error_word st i (name call ^ " error word") ~spec:serr ~trace:err
        | spec', _ -> { (check_transitions st i spec' got) with spec = spec' })

let step st i (ev : Event.t) =
  match ev with
  | Event.Smc_entry { call; args; _ } ->
      let st =
        match st.pending with
        | Some _ -> violation st i "nested smc_entry without smc_exit"
        | None -> st
      in
      let probe _ _ = false in
      let result =
        try Ok (Aspec.step_smc st.spec ~probe ~contents:None ~call ~args)
        with Aspec.Stuck msg -> Error msg
      in
      { st with pending = Some (call, args, result); svc = None; trans = []; life = [] }
  | Event.Fault_injected _ -> st
  | Event.Page_transition _ | Event.Enclave_lifecycle _ | Event.Svc_entry _
  | Event.Svc_exit _ | Event.Exception _
    when st.pending = None ->
      violation st i (Event.kind_name ev ^ " outside any monitor call")
  | Event.Page_transition { page; from_type; to_type } ->
      let st =
        if enclave_run st <> None && st.svc = None then
          violation st i "page_transition in an enclave run outside any SVC"
        else st
      in
      { st with trans = st.trans @ [ (page, from_type, to_type) ] }
  | Event.Enclave_lifecycle { addrspace; stage } ->
      { st with life = st.life @ [ (addrspace, stage) ] }
  | Event.Svc_entry { call; args; _ } ->
      let st =
        if enclave_run st <> None then st else violation st i "svc_entry outside an enclave run"
      in
      { (no_open_svc st i "svc_entry") with svc = Some (call, args, List.length st.trans) }
  | Event.Svc_exit { call; err; _ } -> { (close_svc st i ~call ~err) with svc = None }
  | Event.Exception _ -> st
  | Event.Smc_exit { call; err; retval; _ } -> (
      match st.pending with
      | None -> violation st i "smc_exit without smc_entry"
      | Some (ecall, args, result) -> (
          let st =
            { (no_open_svc st i "smc_exit") with pending = None; svc = None; calls = st.calls + 1 }
          in
          if ecall <> call then
            violation st i
              (Printf.sprintf "smc_exit call %d does not match entry %d" call ecall)
          else
            match result with
            | Error msg -> violation st i ("spec stuck: " ^ msg)
            | Ok (Aspec.Done (spec', serr, sret)) ->
                if serr <> err then error_word st i "error word" ~spec:serr ~trace:err
                else if sret <> retval then
                  violation st i
                    (Printf.sprintf "return value: spec 0x%x, trace 0x%x" sret retval)
                else
                  let st = check_transitions st i spec' st.trans in
                  let st = check_lifecycle st i (spec_lifecycle st.spec ~call ~args serr) in
                  { st with spec = spec' }
            | Ok (Aspec.Pending p) -> (
                match Aspec.allowed_outcome err with
                | None ->
                    violation st i
                      (Printf.sprintf
                         "%s returned %s (%d): not a legal enclave outcome"
                         (Aspec.smc_name call) (Aspec.err_name err) err)
                | Some outcome ->
                    let stage = if p.Aspec.resume then Event.Ls_resume else Event.Ls_enter in
                    let st = check_lifecycle st i [ (p.Aspec.asp, stage) ] in
                    { st with spec = Aspec.resolve st.spec p ~outcome })))

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
      | Event.Svc_entry { call; name; args } ->
          let* () = named "call" call name (Aspec.svc_name call) in
          let n = List.length args in
          if n = 2 then Ok ()
          else Error (Printf.sprintf "event %d: svc_entry has %d args, not r1 and r2" i n)
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
      undecided = 0;
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
    | Some (call, _, _) -> violation st n ("trace ends inside SMC " ^ Aspec.smc_name call)
    | None -> st
  in
  {
    events = n;
    calls = st.calls;
    undecided = st.undecided;
    violations = List.rev st.violations;
    final = st.spec;
  }

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
