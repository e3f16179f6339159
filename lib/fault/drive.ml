(** Fault-injection campaigns over the differential lockstep checker
    (see the interface for the big picture).

    The driver owns the two invariants the lockstep comparison alone
    does not check:

    - {b PageDB well-formedness} after every step, faulted or not —
      the paper proves every SMC and SVC preserves it, so a fault that
      breaks it is a monitor bug, full stop;
    - {b transactional atomicity}: an error return must leave the
      abstract PageDB *and* the concrete bytes of every secure page
      untouched. The concrete half matters: {!Pagedb.check} does not
      require free pages to be zeroed, so a handler that copies data
      in and then fails (the seeded [Bugs.Partial_map_secure]) is
      invisible abstractly and caught only here. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Regs = Komodo_machine.Regs
module Ptable = Komodo_machine.Ptable
module Platform = Komodo_tz.Platform
module Monitor = Komodo_core.Monitor
module Bugs = Komodo_core.Bugs
module Pagedb = Komodo_core.Pagedb
module Os = Komodo_os.Os
module Aspec = Komodo_spec.Aspec
module Diff = Komodo_spec.Diff
module Json = Komodo_telemetry.Json
module Span = Komodo_telemetry.Span

type fault_class = F_irq | F_mem | F_rng | F_storm | F_crash

let class_name = function
  | F_irq -> "irq"
  | F_mem -> "mem"
  | F_rng -> "rng"
  | F_storm -> "storm"
  | F_crash -> "crash"

let all_classes = [ F_irq; F_mem; F_rng; F_storm; F_crash ]

let class_of_string s =
  List.find_opt (fun c -> String.equal (class_name c) s) all_classes

type fop = Op of { op : Diff.op; inj : Inject.plan_item list } | Crash of { seed : int }

let pp_fop = function
  | Crash { seed } -> Printf.sprintf "crash_reboot(seed=%d)" seed
  | Op { op; inj = [] } -> Diff.pp_op op
  | Op { op; inj } ->
      Printf.sprintf "%s  +{%s}" (Diff.pp_op op)
        (String.concat "; " (List.map Inject.pp_item inj))

type violation = { index : int; fop : fop; reason : string }

let pp_violation v =
  Printf.sprintf "fop %d: %s\n  %s" v.index (pp_fop v.fop) v.reason

type stats = { fops_run : int; injections : int; worst_blackout : int }

(* -- one campaign ------------------------------------------------------- *)

let secure_pages_equal (plat : Platform.t) before after =
  let rec go n =
    if n >= plat.Platform.npages then None
    else if
      Memory.equal_range before after (Platform.page_base plat n)
        Ptable.words_per_page
    then go (n + 1)
    else Some n
  in
  go 0

let is_exec_call call = call = Aspec.smc_enter || call = Aspec.smc_resume

let has_commit_action pred items =
  List.exists
    (fun i ->
      (match i.Inject.point with
      | Inject.Commit -> true
      | Inject.Insn _ | Inject.Lockstep _ -> false)
      && pred i.Inject.action)
    items

let has_insn_point items =
  List.exists
    (fun i ->
      match i.Inject.point with
      | Inject.Insn _ -> true
      | Inject.Commit | Inject.Lockstep _ -> false)
    items

let step inj ~worst rs i fop : (Diff.rstate, violation) result =
  let fail reason = Error { index = i; fop; reason } in
  match fop with
  | Crash { seed } -> Ok { rs with Diff.os = Os.crash_reboot ~seed rs.Diff.os }
  | Op { op; inj = items } -> (
      Inject.arm inj items;
      (* A concurrent store at the commit point makes MapSecure's staged
         contents unknowable in advance; instruction-level injection
         makes a probe run unpredictable; an armed exhaustion tells the
         entropy oracle the source will be dry by the time GetRandom
         looks. *)
      let opaque_contents =
        has_commit_action (function Inject.Mem_write _ -> true | _ -> false) items
      in
      let opaque_probe =
        has_insn_point items
        || (match op with
           | Diff.Smc { call; _ } when is_exec_call call ->
               (* A commit-point interrupt assertion preempts the probe
                  at its first instruction. *)
               has_commit_action
                 (function Inject.Irq | Inject.Fiq -> true | _ -> false)
                 items
           | _ -> false)
      in
      let rng_exhausted =
        if has_commit_action (function Inject.Rng_exhaust -> true | _ -> false) items
        then Some true
        else None
      in
      let before = rs.Diff.os.Os.mon in
      let r =
        (* The monitor carries the world's armed bug; the spec step gets
           the same one. *)
        Diff.apply_op ?mutate:before.Monitor.bug ~opaque_contents ~opaque_probe
          ?rng_exhausted rs i op
      in
      Inject.disarm inj;
      match r with
      | Error d -> fail ("lockstep divergence: " ^ d.Diff.reason)
      | Ok rs' -> (
          let mon' = rs'.Diff.os.Os.mon in
          (match Inject.take_blackout inj with
          | Some c0 -> worst := max !worst (Os.cycles rs'.Diff.os - c0)
          | None -> ());
          match
            Pagedb.check mon'.Monitor.plat mon'.Monitor.mach.State.mem
              mon'.Monitor.pagedb
          with
          | _ :: _ as vs ->
              fail
                (Printf.sprintf "PageDB invariant broken:\n  %s"
                   (String.concat "\n  "
                      (List.map
                         (fun v -> Format.asprintf "%a" Pagedb.pp_violation v)
                         vs)))
          | [] -> (
              (* Transactional atomicity on error returns. Enter/Resume
                 are exempt: they commit before running opaque enclave
                 code, and an Interrupted/Fault return legitimately
                 carries the suspension. *)
              match op with
              | Diff.Write_ins _ -> Ok rs'
              | Diff.Smc { call; _ } when is_exec_call call -> Ok rs'
              | Diff.Smc _ ->
                  let err =
                    Word.to_int (State.read_reg mon'.Monitor.mach (Regs.R 0))
                  in
                  if err = Aspec.e_success then Ok rs'
                  else if not (Pagedb.equal before.Monitor.pagedb mon'.Monitor.pagedb)
                  then
                    fail
                      (Printf.sprintf
                         "atomicity: %s returned %s but mutated the PageDB"
                         (pp_fop fop) (Aspec.err_name err))
                  else
                    (match
                       secure_pages_equal mon'.Monitor.plat
                         before.Monitor.mach.State.mem mon'.Monitor.mach.State.mem
                     with
                    | None -> Ok rs'
                    | Some pg ->
                        fail
                          (Printf.sprintf
                             "atomicity: %s returned %s but mutated secure page %d"
                             (pp_fop fop) (Aspec.err_name err) pg)))))

let run_fops w fops =
  let rs0 = Diff.initial_rstate w in
  let plat = rs0.Diff.os.Os.mon.Monitor.plat in
  let inj = Inject.create ~plat () in
  let mon0 =
    { rs0.Diff.os.Os.mon with Monitor.inject = Some (Inject.hook inj) }
  in
  let exec = Komodo_user.Verifier.executor ~inject:(Inject.exec_inject inj) () in
  let rs0 = { rs0 with Diff.os = { rs0.Diff.os with Os.mon = mon0; Os.exec = exec } } in
  let worst = ref 0 in
  let rec go rs i = function
    | [] ->
        Ok { fops_run = i; injections = Inject.fired_count inj; worst_blackout = !worst }
    | fop :: rest -> (
        match step inj ~worst rs i fop with
        | Error v -> Error v
        | Ok rs' -> go rs' (i + 1) rest)
  in
  go rs0 0 fops

(* -- campaign generation ------------------------------------------------ *)

let gen_fops w ~faults ~seed ~n =
  ignore w;
  let has c = List.mem c faults in
  let rnd = Komodo_rand.Lcg.(below (make ((seed lxor 0xfa17) land 0x3fffffff))) in
  let pick l = List.nth l (rnd (List.length l)) in
  let staging = Word.to_int Os.staging_base in
  let shared = Word.to_int Os.shared_base in
  let document = Word.to_int Os.document_base in
  let ins_addr () =
    (* OS-owned insecure windows the monitor actually reads from, plus
       the shared page enclaves map: the spots where a concurrent
       writer hurts most. *)
    pick
      [
        staging + (4 * rnd 4096);
        shared + (4 * rnd 1024);
        document + (4 * rnd 1024);
      ]
  in
  let irq_or_fiq () = if rnd 2 = 0 then Inject.Irq else Inject.Fiq in
  let inj_for (op : Diff.op) =
    let items = ref [] in
    let add point action = items := { Inject.point; action } :: !items in
    (match op with
    | Diff.Smc { call; _ } ->
        let exec = is_exec_call call in
        if has F_irq && rnd 4 = 0 then add Inject.Commit (irq_or_fiq ());
        if has F_irq && exec && rnd 3 = 0 then
          add (Inject.Insn (rnd 40)) (irq_or_fiq ());
        if has F_mem && rnd 4 = 0 then
          add Inject.Commit
            (Inject.Mem_write { addr = ins_addr (); value = rnd 0x40000000 });
        if has F_mem && exec && rnd 4 = 0 then
          add (Inject.Insn (rnd 40))
            (Inject.Mem_write { addr = ins_addr (); value = rnd 0x40000000 });
        if has F_rng && rnd 6 = 0 then
          add Inject.Commit
            (if rnd 3 = 0 then Inject.Rng_reseed (rnd 1_000_000)
             else Inject.Rng_exhaust)
    | Diff.Write_ins _ -> ());
    List.rev !items
  in
  let storm () =
    (* A burst of malformed calls: bad call numbers, wild page numbers,
       misaligned and out-of-range addresses. All still checked in
       lockstep — the spec predicts every rejection. *)
    List.init
      (2 + rnd 4)
      (fun _ ->
        let call =
          pick
            [ 0; 13; 42; 99; Aspec.smc_map_secure; Aspec.smc_init_addrspace;
              Aspec.smc_remove; Aspec.smc_enter ]
        in
        let garbage () =
          pick [ 0; 1; 0x3fffffff; 0x1001; staging; rnd 0x40000000; 255 ]
        in
        Op
          {
            op =
              Diff.Smc
                {
                  call;
                  args = [ garbage (); garbage (); garbage (); garbage () ];
                  budget = None;
                };
            inj = [];
          })
  in
  let dirty_map_secure () =
    (* Junk in an insecure window, then a MapSecure whose mapping
       argument fails *after* the content checks: the sequence that
       exposes a handler copying contents in before it is sure the call
       succeeds (the [Bugs.Partial_map_secure] shape). *)
    [
      Op
        {
          op = Diff.Write_ins { addr = staging + (4 * rnd 64); value = 1 + rnd 0xffffff };
          inj = [];
        };
      Op
        {
          op =
            Diff.Smc
              {
                call = Aspec.smc_map_secure;
                args =
                  [
                    17;
                    20 + rnd 16;
                    pick [ 0x5; 0x1003; 0x400005; 0x2000 ];
                    pick [ staging; shared; document ];
                  ];
                budget = None;
              };
          inj = [];
        };
    ]
  in
  let base = Diff.gen_ops w ~seed ~n in
  List.concat_map
    (fun op ->
      let pre = if has F_storm && rnd 10 = 0 then storm () else [] in
      let pre = if has F_storm && rnd 12 = 0 then pre @ dirty_map_secure () else pre in
      let crash =
        if has F_crash && rnd 16 = 0 then [ Crash { seed = rnd 1_000_000 } ]
        else []
      in
      pre @ crash @ [ Op { op; inj = inj_for op } ])
    base

(* -- the campaign driver ---------------------------------------------------- *)

let kind = "fault"

type config = {
  npages : int;
  ops_per_trial : int;
  profile : bool;
  clock : Span.clock option;
  bug : Bugs.t option;
  faults : fault_class list;
}

let default =
  {
    npages = 40;
    ops_per_trial = 40;
    profile = false;
    clock = None;
    bug = None;
    faults = all_classes;
  }

(* A fault trial runs in a differential world: the same geometry rules,
   the same layers and the same op codec. *)
let diff_config c = { Diff.default with npages = c.npages; ops_per_trial = c.ops_per_trial }
let layers = Diff.layers

let validate c =
  Result.bind (Diff.validate (diff_config c)) (fun () -> Bugs.armable ~kind layers c.bug)

type op = fop
type failure = violation

type trial = {
  t_run : (stats, violation) result;
  t_classes : (string * int) list;
  t_spans : Span.node list;
}

(* Armed-plan attribution for the progress reporter: which fault class
   produced each plan item. Storms are malformed *ops*, not injections,
   so they never appear here. *)
let class_of_action = function
  | Inject.Irq | Inject.Fiq -> F_irq
  | Inject.Mem_write _ -> F_mem
  | Inject.Rng_reseed _ | Inject.Rng_exhaust -> F_rng

let class_counts fops =
  let count c =
    List.fold_left
      (fun n -> function
        | Crash _ -> if c = F_crash then n + 1 else n
        | Op { inj; _ } ->
            n + List.length (List.filter (fun it -> class_of_action it.Inject.action = c) inj))
      0 fops
  in
  List.map (fun c -> (class_name c, count c)) all_classes

let world c ?spans ~seed () = Diff.make_world ?bug:c.bug ~npages:c.npages ?spans ~seed ()

let run_trial c ~seed =
  let recorder = if c.profile then Span.create ?clock:c.clock () else Span.null in
  let spans = if c.profile then Some recorder else None in
  let w = world c ?spans ~seed () in
  let campaign = gen_fops w ~faults:c.faults ~seed ~n:c.ops_per_trial in
  let t_run = run_fops w campaign in
  {
    t_run;
    t_classes = class_counts (if Result.is_ok t_run then campaign else []);
    t_spans = Span.roots recorder;
  }

let failed t = Result.is_error t.t_run

(* A violating trial contributes only its pre-violation fop count to the
   campaign totals — injections and blackout stay out of the report,
   exactly as the sequential driver always counted. *)
let stats t =
  match t.t_run with
  | Ok st -> st
  | Error v -> { fops_run = v.index; injections = 0; worst_blackout = 0 }

let shrink c ~seed =
  let w = world c ~seed () in
  Diff.shrink_seq ~run:(run_fops w) ~index:(fun v -> v.index)
    (gen_fops w ~faults:c.faults ~seed ~n:c.ops_per_trial)

let counters t =
  let s = stats t in
  ("ops", s.fops_run) :: ("injections", s.injections) :: t.t_classes

type outcome = {
  trials_run : int;
  total_fops : int;
  total_injections : int;
  blackout : int;
  violation : (int * fop list * violation) option;
  spans : Span.node list;
      (** per-trial span trees concatenated in trial-index order *)
}

let reduce trials violation =
  let sum f = List.fold_left (fun a t -> a + f (stats t)) 0 trials in
  {
    trials_run = List.length trials;
    total_fops = sum (fun s -> s.fops_run);
    total_injections = sum (fun s -> s.injections);
    blackout = List.fold_left (fun a t -> max a (stats t).worst_blackout) 0 trials;
    violation;
    spans = List.concat_map (fun t -> t.t_spans) trials;
  }

let replay c ~seed fops = run_fops (world c ~seed ()) fops

(* -- traces ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let header c = [ ("npages", Json.Int c.npages); ("bug", Json.name Bugs.name c.bug) ]

let of_header h =
  let* npages = Json.int_field "npages" h in
  let* bug = Json.name_field "bug" Bugs.of_string h in
  Ok { default with npages; bug }

let point_to_json = function
  | Inject.Commit -> Json.Str "commit"
  | Inject.Insn n -> Json.Obj [ ("insn", Json.Int n) ]
  | Inject.Lockstep n -> Json.Obj [ ("lock", Json.Int n) ]

let action_to_json = function
  | Inject.Irq -> Json.Str "irq"
  | Inject.Fiq -> Json.Str "fiq"
  | Inject.Mem_write { addr; value } ->
      Json.Obj [ ("mem_write", Json.Obj [ ("addr", Json.Int addr); ("value", Json.Int value) ]) ]
  | Inject.Rng_reseed n -> Json.Obj [ ("rng_reseed", Json.Int n) ]
  | Inject.Rng_exhaust -> Json.Str "rng_exhaust"

let op_to_json = function
  | Crash { seed } -> Json.Obj [ ("crash", Json.Int seed) ]
  | Op { op; inj } ->
      let item (i : Inject.plan_item) =
        Json.Obj
          [ ("point", point_to_json i.Inject.point); ("action", action_to_json i.Inject.action) ]
      in
      Json.Obj [ ("op", Diff.op_to_json op); ("inj", Json.List (List.map item inj)) ]

(* Boundaries are counted from 0: a negative one would never fire. *)
let point_of_json = function
  | Json.Str "commit" -> Ok Inject.Commit
  | Json.Obj _ as j ->
      let name, point =
        if Option.is_some (Json.member "insn" j) then ("insn", fun n -> Inject.Insn n)
        else ("lock", fun n -> Inject.Lockstep n)
      in
      let* n = Json.int_field name j in
      if n >= 0 then Ok (point n) else Error (Printf.sprintf "%s %d: a negative boundary" name n)
  | _ -> Error "bad injection point"

let action_of_json = function
  | Json.Str "irq" -> Ok Inject.Irq
  | Json.Str "fiq" -> Ok Inject.Fiq
  | Json.Str "rng_exhaust" -> Ok Inject.Rng_exhaust
  | Json.Obj _ as j -> (
      match Json.member "mem_write" j with
      | Some mw ->
          let* addr = Diff.word_addr "addr" mw in
          let* value = Json.int_field "value" mw in
          Ok (Inject.Mem_write { addr; value })
      | None -> Result.map (fun n -> Inject.Rng_reseed n) (Json.int_field "rng_reseed" j))
  | _ -> Error "bad injection action"

let item_of_json j =
  let* point = Result.bind (Json.field "point" Option.some j) point_of_json in
  let* action = Result.bind (Json.field "action" Option.some j) action_of_json in
  Ok { Inject.point; action }

let op_of_json c j =
  match Json.member "crash" j with
  | Some _ -> Result.map (fun seed -> Crash { seed }) (Json.int_field "crash" j)
  | None ->
      let* op = Result.bind (Json.field "op" Option.some j) (Diff.op_of_json (diff_config c)) in
      let* inj = Json.field "inj" Json.to_list_opt j in
      let* inj = Json.all ~what:"inj" item_of_json inj in
      Ok (Op { op; inj })
