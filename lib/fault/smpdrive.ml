(** Multi-core lock-discipline campaigns over the interleaved stepper.

    Each trial boots the platform with a collecting telemetry sink,
    runs a short sequential prelude giving every CPU its own
    unfinalised address space, then races a seeded per-CPU stream of
    construction calls over a small shared page pool through
    {!Komodo_os.Smp.run}. Three oracles judge the run:

    - {b deadlock}: the stepper's wait-for cycle detector fired — with
      the ascending acquisition order this is impossible by
      construction, so any cycle is a violation;
    - {b invariant}: {!Komodo_core.Pagedb.check} on the final shared
      state (lost updates from under-locking corrupt the PageDB);
    - {b linearisability}: {!Komodo_spec.Trace_check.replay} of the
      monitor's own trace, which lists the prelude and every call in
      validation order: the first event the spec refuses, or a final
      spec state other than {!Komodo_spec.Abs.abs} of the committed
      state, refutes the stepper's claim that each validation is its
      call's linearisation point.

    Violations shrink greedily ({!Komodo_spec.Diff.shrink_seq}) to a
    1-minimal flattened op list and serialise to JSONL replay traces,
    exactly like {!Drive}'s. With [~faults:true] the trial also arms
    the fault injector with {!Inject.Lockstep}-point plans — insecure
    memory writes, interrupts, RNG glitches at lock boundaries — which
    the construction-call alphabet cannot observe, so fault campaigns
    must stay violation-free. *)

module Word = Komodo_machine.Word
module Memory = Komodo_machine.Memory
module Platform = Komodo_tz.Platform
module Monitor = Komodo_core.Monitor
module Bugs = Komodo_core.Bugs
module Pagedb = Komodo_core.Pagedb
module Abi = Komodo_core.Abi
module Errors = Komodo_core.Errors
module Os = Komodo_os.Os
module Smp = Komodo_os.Smp
module Abs = Komodo_spec.Abs
module Astate = Komodo_spec.Astate
module Trace_check = Komodo_spec.Trace_check
module Diff = Komodo_spec.Diff
module Json = Komodo_telemetry.Json
module Sink = Komodo_telemetry.Sink
module Seedsplit = Komodo_rand.Seedsplit

type sop = { s_cpu : int; s_call : int; s_args : int list }

let pp_sop s =
  Printf.sprintf "cpu%d %s(%s)" s.s_cpu
    (Abi.smc_name s.s_call)
    (String.concat "," (List.map string_of_int s.s_args))

type violation = {
  index : int;  (** last op index of the violating run (for shrinking) *)
  kind : string;  (** ["deadlock"] | ["invariant"] | ["linearisability"] *)
  reason : string;
}

let pp_violation v = Printf.sprintf "%s: %s" v.kind v.reason

(* -- World construction -------------------------------------------------- *)

(* Per-CPU prelude pages: cpu [c] owns addrspace page [3c], l1pt
   [3c+1], l2pt [3c+2]. The contended pool starts right after. *)
let asp_page c = 3 * c
let pool_base ~cpus = 3 * cpus
let pool_pages = 8

let prelude_calls ~cpus =
  List.concat
    (List.init cpus (fun c ->
         let a = asp_page c in
         [
           (Abi.smc_init_addrspace, [ a; a + 1 ]);
           (Abi.smc_init_l2ptable, [ a; a + 2; 0 ]);
         ]))

let apply_prelude os ~cpus =
  List.fold_left
    (fun os (call, args) ->
      let os, err, _ = Os.smc os ~call ~args:(List.map Word.of_int args) in
      if not (Errors.is_success err) then
        failwith "Smpdrive: prelude call failed";
      os)
    os (prelude_calls ~cpus)

(* Each CPU's prelude takes pages, so [cpus <= npages] costs no valid
   world and keeps [pool_base] from overflowing on an absurd count. *)
let check_geometry ~npages ~cpus =
  if cpus < 1 then Error (Printf.sprintf "cpus must be at least 1, got %d" cpus)
  else if cpus > npages then
    Error (Printf.sprintf "cpus must be at most the page count %d, got %d" npages cpus)
  else
    Diff.check_npages ~min:(pool_base ~cpus + pool_pages)
      ~why:(Printf.sprintf "the preludes and shared pool of %d cpus" cpus)
      npages

(* -- Fault plans at lock boundaries -------------------------------------- *)

let gen_faults ~seed ~n =
  let st = Seedsplit.stream ~root:(Seedsplit.derive ~root:seed 0x10CF) () in
  let rnd k = Seedsplit.next st mod k in
  List.init
    (2 + rnd 4)
    (fun _ ->
      let point = Inject.Lockstep (rnd (4 * (n + 1))) in
      let action =
        match rnd 4 with
        | 0 ->
            Inject.Mem_write
              {
                addr = Word.to_int Os.staging_base + (4 * rnd 1024);
                value = rnd 0x3FFF_FFFF;
              }
        | 1 ->
            Inject.Mem_write
              {
                addr = Word.to_int Os.shared_base + (4 * rnd 1024);
                value = rnd 0x3FFF_FFFF;
              }
        | 2 -> Inject.Irq
        | _ -> Inject.Rng_reseed (rnd 0x3FFF_FFFF)
      in
      { Inject.point; action })

(* -- Running a flattened op list ----------------------------------------- *)

let scripts_of_sops ~cpus sops =
  List.init cpus (fun c ->
      List.filter_map
        (fun s ->
          if s.s_cpu = c then
            Some { Smp.call = s.s_call; args = List.map Word.of_int s.s_args }
          else None)
        sops)

type stats = {
  calls : int;
  contended : int;
  uncontended : int;
  spins : int;
  retries : int;
  lock_cycles : int;
  injections : int;
}

(* -- The campaign driver --------------------------------------------------- *)

let kind = "smp"

type config = {
  npages : int;
  cpus : int;
  ops_per_cpu : int;
  bug : Bugs.t option;
  faults : bool;
}

let default = { npages = 32; cpus = 4; ops_per_cpu = 8; bug = None; faults = false }

let layers = Bugs.[ Monitor; Stepper ]

let validate c =
  if c.ops_per_cpu < 0 then
    Error (Printf.sprintf "ops must be non-negative, got %d" c.ops_per_cpu)
  else
    Result.bind (check_geometry ~npages:c.npages ~cpus:c.cpus) (fun () ->
        Bugs.armable ~kind layers c.bug)

let replay c ~seed sops =
  Result.iter_error invalid_arg (validate c);
  let cpus = c.cpus in
  let sink, trace = Sink.collect () in
  let os = apply_prelude (Os.boot ~seed ~npages:c.npages ~sink ()) ~cpus in
  (* The prelude runs on the correct monitor; the racing calls, with the
     bug armed. *)
  let os = { os with Os.mon = { os.Os.mon with Monitor.bug = c.bug } } in
  let os, inj =
    if not c.faults then (os, None)
    else begin
      let inj = Inject.create ~plat:os.Os.mon.Monitor.plat () in
      Inject.arm inj (gen_faults ~seed ~n:(List.length sops));
      let mon =
        { os.Os.mon with Monitor.inject = Some (Inject.hook inj) }
      in
      ({ os with Os.mon }, Some inj)
    end
  in
  let outcome = Smp.run ~seed ?bug:c.bug os ~scripts:(scripts_of_sops ~cpus sops) in
  let last = List.length sops - 1 in
  let fail kind reason = Error { index = last; kind; reason } in
  match outcome.Smp.deadlock with
  | Some dl ->
      let member w =
        Printf.sprintf "cpu%d holds {%s} wants %d" w.Smp.w_cpu
          (String.concat "," (List.map string_of_int w.Smp.w_holds))
          w.Smp.w_wants
      in
      fail "deadlock"
        (Printf.sprintf "wait-for cycle: %s"
           (String.concat " -> " (List.map member dl.Smp.dl_cycle)))
  | None -> (
      let mon = outcome.Smp.os.Os.mon in
      match
        Pagedb.check mon.Monitor.plat mon.Monitor.mach.Komodo_machine.State.mem
          mon.Monitor.pagedb
      with
      | pv :: _ ->
          fail "invariant"
            (Format.asprintf "final PageDB ill-formed: %a" Pagedb.pp_violation
               pv)
      | [] -> (
          (* The trace holds the prelude and every retired call in
             validation order: the first event the spec refuses, or a
             committed state the replay does not reach, refutes that
             order as a linearisation. *)
          let r = Trace_check.replay ~npages:c.npages (trace ()) in
          let spec = r.Trace_check.final and committed = Abs.abs mon in
          match (r.Trace_check.violations, Astate.diff spec committed) with
          | (i, msg) :: _, _ -> fail "linearisability" (Printf.sprintf "event %d: %s" i msg)
          | [], pg :: _ ->
              fail "linearisability"
                (Printf.sprintf "final state: page %d: spec %s, committed %s" pg
                   (Astate.pp_at spec pg) (Astate.pp_at committed pg))
          | [], [] ->
              let st = outcome.Smp.stats in
              Ok
                {
                  calls = st.Smp.total_calls;
                  contended = st.Smp.contended_acquisitions;
                  uncontended = st.Smp.uncontended_acquisitions;
                  spins = st.Smp.spin_iterations;
                  retries = st.Smp.retries;
                  lock_cycles = st.Smp.lock_cycles;
                  injections =
                    (match inj with
                    | Some inj -> Inject.fired_count inj
                    | None -> 0);
                }))

(* -- Seeded op generation ------------------------------------------------ *)

(* Weighted construction-call templates over the shared pool. MapSecure
   dominates (the racing-allocation shape both seeded bugs need);
   content is always 0 so the spec replay is exact. *)
let gen_sops ~seed ~cpus ~ops_per_cpu =
  let pb = pool_base ~cpus in
  List.concat
    (List.init cpus (fun c ->
         let st =
           Seedsplit.stream ~root:(Seedsplit.derive ~root:seed (c + 1)) ()
         in
         let rnd k = Seedsplit.next st mod k in
         let pool () = pb + rnd pool_pages in
         let va () = ((1 + rnd 12) * 0x1000) lor 3 in
         List.init ops_per_cpu (fun _ ->
             let a = asp_page c in
             let call, args =
               match rnd 12 with
               | 0 | 1 | 2 | 3 | 4 ->
                   (Abi.smc_map_secure, [ a; pool (); va (); 0 ])
               | 5 | 6 -> (Abi.smc_remove, [ pool () ])
               | 7 -> (Abi.smc_init_thread, [ a; pool (); va () land lnot 3 ])
               | 8 -> (Abi.smc_alloc_spare, [ a; pool () ])
               | 9 -> (Abi.smc_get_phys_pages, [])
               | 10 -> (Abi.smc_map_insecure, [ a; rnd 4; va () ])
               | _ ->
                   (* racing Remove of another cpu's addrspace page *)
                   (Abi.smc_remove, [ asp_page (rnd cpus) ])
             in
             { s_cpu = c; s_call = call; s_args = args })))

(* -- Trials -------------------------------------------------------------- *)

type op = sop
type failure = violation

(* A violating trial contributes nothing to the campaign totals. *)
type trial = (stats, violation) result

let run_trial c ~seed =
  replay c ~seed (gen_sops ~seed ~cpus:c.cpus ~ops_per_cpu:c.ops_per_cpu)

let failed = Result.is_error

let shrink c ~seed =
  Diff.shrink_seq ~run:(replay c ~seed) ~index:(fun v -> v.index)
    (gen_sops ~seed ~cpus:c.cpus ~ops_per_cpu:c.ops_per_cpu)

let counters = function
  | Error _ -> []
  | Ok s ->
      [
        ("ops", s.calls); ("contended", s.contended); ("uncontended", s.uncontended);
        ("spins", s.spins); ("lock_cycles", s.lock_cycles); ("injections", s.injections);
      ]

type outcome = {
  trials_run : int;
  total_calls : int;
  total_contended : int;
  total_uncontended : int;
  total_spins : int;
  total_retries : int;
  total_lock_cycles : int;
  total_injections : int;
  violation : (int * sop list * violation) option;
}

let reduce trials violation =
  let ok = List.filter_map Result.to_option trials in
  let sum f = List.fold_left (fun a s -> a + f s) 0 ok in
  {
    trials_run = List.length trials;
    total_calls = sum (fun s -> s.calls);
    total_contended = sum (fun s -> s.contended);
    total_uncontended = sum (fun s -> s.uncontended);
    total_spins = sum (fun s -> s.spins);
    total_retries = sum (fun s -> s.retries);
    total_lock_cycles = sum (fun s -> s.lock_cycles);
    total_injections = sum (fun s -> s.injections);
    violation;
  }

(* -- Traces ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let header c =
  [
    ("npages", Json.Int c.npages);
    ("cpus", Json.Int c.cpus);
    ("bug", Json.name Bugs.name c.bug);
  ]

let of_header h =
  let* npages = Json.int_field "npages" h in
  let* cpus = Json.int_field "cpus" h in
  let* bug = Json.name_field "bug" Bugs.of_string h in
  Ok { default with npages; cpus; bug }

let op_to_json s =
  Json.Obj
    [
      ("cpu", Json.Int s.s_cpu);
      ("call", Json.Int s.s_call);
      ("args", Json.List (List.map (fun a -> Json.Int a) s.s_args));
    ]

(* An op for a CPU the header does not have would never be scheduled. *)
let op_of_json c j =
  let* s_cpu = Json.int_field "cpu" j in
  let* s_call, s_args = Diff.smc_of_json j in
  if s_cpu >= 0 && s_cpu < c.cpus then Ok { s_cpu; s_call; s_args }
  else Error (Printf.sprintf "cpu %d out of range [0, %d)" s_cpu c.cpus)
