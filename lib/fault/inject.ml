(** The seeded, deterministic fault injector (see the interface for the
    threat-model framing). The injector is the *environment*: it may
    write OS-owned insecure memory, perturb the entropy source, and
    assert interrupt lines, but the modelled TZASC blocks anything
    aimed at secure memory — the injector cannot do what the hardware
    promises the environment cannot. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Exec = Komodo_machine.Exec
module Platform = Komodo_tz.Platform
module Rng = Komodo_tz.Rng
module Monitor = Komodo_core.Monitor
module Event = Komodo_telemetry.Event

type action =
  | Irq
  | Fiq
  | Mem_write of { addr : int; value : int }
  | Rng_reseed of int
  | Rng_exhaust

type point = Commit | Insn of int | Lockstep of int

type plan_item = { point : point; action : action }

let action_name = function
  | Irq -> "irq"
  | Fiq -> "fiq"
  | Mem_write { addr; value } -> Printf.sprintf "mem_write:0x%x<-0x%x" addr value
  | Rng_reseed n -> Printf.sprintf "rng_reseed:%d" n
  | Rng_exhaust -> "rng_exhaust"

let pp_item { point; action } =
  let at =
    match point with
    | Commit -> "commit"
    | Insn n -> Printf.sprintf "insn %d" n
    | Lockstep n -> Printf.sprintf "lock %d" n
  in
  Printf.sprintf "%s@%s" (action_name action) at

type t = {
  plat : Platform.t;
  mutable armed : plan_item list;
  mutable insns : int;  (** instruction boundaries seen in the current call *)
  mutable locksteps : int;  (** lock acquire/release boundaries seen in the current call *)
  mutable log : (string * string) list;  (** fired (point, action), newest first *)
  mutable blackout_start : int option;
      (** cycles at the first commit-point IRQ/FIQ since last {!take_blackout} *)
}

let create ~plat () =
  { plat; armed = []; insns = 0; locksteps = 0; log = []; blackout_start = None }

let arm t items =
  t.armed <- items;
  t.insns <- 0;
  t.locksteps <- 0

let disarm t = t.armed <- []
let fired t = List.rev t.log
let fired_count t = List.length t.log

let take_blackout t =
  let b = t.blackout_start in
  t.blackout_start <- None;
  b

let is_commit i = match i.point with Commit -> true | Insn _ | Lockstep _ -> false

(* -- monitor-boundary firing (commit and lock points) ------------------- *)

(** Apply one monitor-level action; shared by commit-point and
    lock-boundary firing, so the TZASC gate and interrupt pend
    semantics are identical at both. *)
let apply_monitor_action inj ~point (t : Monitor.t) action =
  let record t what =
    inj.log <- (point, what) :: inj.log;
    if Monitor.telemetry_on t then
      Monitor.emit t (Event.Fault_injected { point; action = what })
  in
  match action with
  | Irq | Fiq ->
      (* Interrupts are masked in monitor mode, so the assertion pends
         across the rest of the call — but if the call goes on to run
         enclave code, the line preempts it at the first instruction
         boundary (arm the interrupt source with a zero budget). Record
         when it was raised so the driver can measure the blackout
         until the OS runs again. *)
      record t (action_name action);
      if inj.blackout_start = None then
        inj.blackout_start <- Some (Monitor.cycles t);
      { t with Monitor.mach = { t.Monitor.mach with State.irq_budget = Some 0 } }
  | Mem_write { addr; value } ->
      let a = Word.of_int addr in
      if Platform.normal_world_accessible t.Monitor.plat a then begin
        record t (action_name action);
        { t with Monitor.mach = State.store t.Monitor.mach a (Word.of_int value) }
      end
      else t (* TZASC: the environment cannot reach secure memory *)
  | Rng_reseed n ->
      record t (action_name action);
      { t with Monitor.rng = Rng.seed n }
  | Rng_exhaust ->
      record t (action_name action);
      { t with Monitor.rng = Rng.with_budget t.Monitor.rng (Some 0) }

let hook inj (p : Monitor.phase) (t : Monitor.t) =
  match p with
  | Monitor.Ph_commit { smc; call } -> (
      let now, later = List.partition is_commit inj.armed in
      match now with
      | [] -> t
      | _ ->
          (* Fire-once: a deterministic plan must not re-fire at the
             later commits of a multi-phase call (Enter commits, then
             the probe's SVC commits). *)
          inj.armed <- later;
          let point =
            Printf.sprintf "commit:%s:%d" (if smc then "smc" else "svc") call
          in
          List.fold_left
            (fun t item -> apply_monitor_action inj ~point t item.action)
            t now)
  | Monitor.Ph_lock { acquire; cpu; page; call } -> (
      let n = inj.locksteps in
      inj.locksteps <- n + 1;
      let hit = function Lockstep k -> k = n | Commit | Insn _ -> false in
      let now, later = List.partition (fun i -> hit i.point) inj.armed in
      match now with
      | [] -> t
      | _ ->
          inj.armed <- later;
          let point =
            Printf.sprintf "lock:%s:%d:cpu%d:pg%d:%d"
              (if acquire then "acq" else "rel")
              n cpu page call
          in
          List.fold_left
            (fun t item -> apply_monitor_action inj ~point t item.action)
            t now)

(* -- instruction-boundary firing --------------------------------------- *)

let rec insn_due n = function
  | [] -> false
  | { point = Insn k; _ } :: rest -> k = n || insn_due n rest
  | { point = Commit | Lockstep _; _ } :: rest -> insn_due n rest

(* Boundaries from the [n]th on before the first armed [Insn] item. *)
let rec insn_quiet n acc = function
  | [] -> acc
  | { point = Insn k; _ } :: rest when k >= n -> insn_quiet n (Int.min acc (k - n)) rest
  | _ :: rest -> insn_quiet n acc rest

let exec_due inj () =
  let n = inj.insns in
  inj.insns <- n + 1;
  if not (insn_due n inj.armed) then None
  else
    let now, later = List.partition (fun i -> i.point = Insn n) inj.armed in
    inj.armed <- later;
    let point = Printf.sprintf "insn:%d" n in
    let record what = inj.log <- (point, what) :: inj.log in
    Some
      (fun s ->
        List.fold_left
          (fun (s, forced) item ->
            match item.action with
            | Irq ->
                record (action_name item.action);
                (s, Some Exec.Ev_irq)
            | Fiq ->
                record (action_name item.action);
                (s, Some Exec.Ev_fiq)
            | Mem_write { addr; value } ->
                let a = Word.of_int addr in
                if Platform.normal_world_accessible inj.plat a then begin
                  record (action_name item.action);
                  (State.store s a (Word.of_int value), forced)
                end
                else (s, forced)
            | Rng_reseed _ | Rng_exhaust ->
                (* The entropy source lives in the monitor, not the
                   machine; these only make sense at commit points. *)
                (s, forced))
          (s, None) now)

(* A cycle summary may run up to the next armed [Insn] item; the
   boundaries it passes still count, so [insns] and the point names in
   the fired log are those of a step-by-step run. *)
let exec_inject inj =
  {
    Exec.due = exec_due inj;
    quiet = (fun () -> insn_quiet inj.insns max_int inj.armed);
    passed = (fun k -> inj.insns <- inj.insns + k);
  }
