(* One differential lockstep op with its layers re-called in isolation.

   [Diff.apply_op] runs three layers the benchmark cannot time from
   outside: the monitor ([Os.smc], itself the ARM interpreter for
   Enter/Resume), the spec step ([Aspec.step_smc]) and the abstraction
   function ([Abs.abs]). [step] re-issues each on the same pre-op (or
   post-op) state, times it as an estimate, and checks that the
   isolated call returns what [apply_op] produced for the same op. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors
module Pagedb = Komodo_core.Pagedb
module Os = Komodo_os.Os
module Astate = Komodo_spec.Astate
module Aspec = Komodo_spec.Aspec
module Abs = Komodo_spec.Abs
module Diff = Komodo_spec.Diff

(* The page of the probe enclave's thread in every world the
   differential checker builds ([Diff.probe_thread]). *)
let probe_page = 5

let with_budget budget (os : Os.t) =
  let mon = os.Os.mon in
  { os with Os.mon = { mon with Monitor.mach = { mon.Monitor.mach with State.irq_budget = budget } } }

(* The MapSecure contents oracle [apply_op] hands the spec: the staged
   insecure page, when the spec's own preconditions allow reading it. *)
let contents (rs : Diff.rstate) ~call ~args =
  if call <> Aspec.smc_map_secure then None
  else
    match args with
    | _ :: _ :: _ :: c :: _ ->
        let c = c land 0xffffffff in
        if c <> 0 && c land 0xfff = 0 && Astate.valid_insecure rs.Diff.spec.Astate.plat c
        then Some (Os.read_bytes rs.Diff.os (Word.of_int c) 4096)
        else None
    | _ -> None

let is_crossing call = call = Aspec.smc_enter || call = Aspec.smc_resume
let reg os r = Word.to_int (State.read_reg os.Os.mon.Monitor.mach (Regs.R r))

(** How [Drive] decorates an op: the injection plan armed
    around each call, and the oracle overrides that plan implies. *)
type decor = {
  arm : unit -> unit;
  disarm : unit -> unit;
  opaque_contents : bool;
  opaque_probe : bool;
  rng_exhausted : bool option;
}

let plain =
  { arm = ignore; disarm = ignore; opaque_contents = false; opaque_probe = false; rng_exhausted = None }

(* The estimated layers [step] re-calls: all of them sit inside
   [Diff.apply_op] (check) or [Drive.run_fops] (fault). *)
let inner (l : Layers.t) =
  [ l.Layers.crossing; l.Layers.smc; l.Layers.write; l.Layers.aspec; l.Layers.abs; l.Layers.compare ]

(** Step [op] through [Diff.apply_op] (timed into [apply] when given),
    re-calling the monitor and the spec step in isolation on the
    retained pre-op state, and the abstraction and its comparison with
    the spec state on the post-op state. Odd ops make the pre-op
    re-calls before the program's call and even ops after it, so
    neither side always runs on caches the other warmed. Everything
    but the timed [apply_op] is charged as estimate time. [cache] is
    the benchmark's own abstraction memo, threaded through the trial
    the way [apply_op] threads its own. *)
let step ?cover ?apply ?(decor = plain) (l : Layers.t) ~cache (rs : Diff.rstate) i op =
  let t0 = Util.now () and e0 = l.Layers.est_secs in
  let before = Layers.secs (inner l) in
  let apply_dt = ref 0. in
  let run_apply () =
    decor.arm ();
    let r, dt =
      Util.time (fun () ->
          Diff.apply_op ?cover ~opaque_contents:decor.opaque_contents
            ~opaque_probe:decor.opaque_probe ?rng_exhausted:decor.rng_exhausted rs i op)
    in
    decor.disarm ();
    Option.iter
      (fun a ->
        Layers.add a dt;
        apply_dt := dt)
      apply;
    r
  in
  (* [Os.smc] and [Aspec.step_smc] on the pre-op state. *)
  let recall ~call ~args ~budget =
    let os = with_budget budget rs.Diff.os in
    let c0 = Os.cycles os in
    let timer = if is_crossing call then l.Layers.crossing else l.Layers.smc in
    let isolated, dt =
      Util.time (fun () ->
          decor.arm ();
          let r =
            match Os.smc os ~call ~args:(List.map Word.of_int args) with
            | exception _ -> None
            | r -> Some r
          in
          decor.disarm ();
          r)
    in
    let kcycles =
      match isolated with
      | Some (os1, _, _) -> float_of_int (Os.cycles os1 - c0) /. 1000.
      | None -> 0.
    in
    Layers.charge ~kcycles l timer dt;
    let probe spec n =
      (not decor.opaque_probe) && rs.Diff.probe_ok && n = probe_page && Diff.probe_shape spec
    in
    let rng_exhausted =
      match decor.rng_exhausted with
      | Some b -> b
      | None -> Komodo_tz.Rng.exhausted os.Os.mon.Monitor.rng
    in
    let contents = if decor.opaque_contents then None else contents rs ~call ~args in
    let spec =
      Layers.estimate l l.Layers.aspec (fun () ->
          match Aspec.step_smc ~rng_exhausted rs.Diff.spec ~probe ~contents ~call ~args with
          | r -> Some r
          | exception Aspec.Stuck _ -> None)
    in
    (isolated, spec)
  in
  let result =
    match op with
    | Diff.Write_ins { addr; value } ->
        let r = run_apply () in
        (match r with
        | Ok rs' ->
            let os =
              Layers.estimate l l.Layers.write (fun () ->
                  Os.write_word rs.Diff.os (Word.of_int addr) (Word.of_int value))
            in
            Layers.expect l
              (Os.read_bytes os (Word.of_int addr) 4 = Os.read_bytes rs'.Diff.os (Word.of_int addr) 4)
              "isolated Os.write_word differs from apply_op"
        | Error _ -> ());
        r
    | Diff.Smc { call; args; budget } -> (
        let early = if i land 1 = 1 then Some (recall ~call ~args ~budget) else None in
        match run_apply () with
        | Error _ as e -> e
        | Ok rs' as ok ->
            let isolated, spec =
              match early with Some r -> r | None -> recall ~call ~args ~budget
            in
            let a = Layers.estimate l l.Layers.abs (fun () -> Abs.abs ~cache rs'.Diff.os.Os.mon) in
            let diffs = Layers.estimate l l.Layers.compare (fun () -> Astate.diff rs'.Diff.spec a) in
            let e' = reg rs'.Diff.os 0 and r' = reg rs'.Diff.os 1 in
            let name = Aspec.smc_name call in
            (match isolated with
            | None -> Layers.expect l false (name ^ ": isolated Os.smc raised")
            | Some (os1, e, ret) ->
                Layers.expect l
                  (Word.to_int (Errors.to_word e) = e'
                  && Word.to_int ret = r'
                  && Os.cycles os1 = Os.cycles rs'.Diff.os)
                  (name ^ ": isolated Os.smc error/return/cycles differ from apply_op"));
            (match spec with
            | Some (Aspec.Done (spec', serr, sret)) ->
                Layers.expect l
                  (serr = e' && sret = r' && Astate.equal spec' rs'.Diff.spec)
                  (name ^ ": isolated Aspec.step_smc differs from apply_op")
            | Some (Aspec.Pending _) ->
                Layers.expect l
                  (is_crossing call && Aspec.allowed_outcome e' <> None)
                  (name ^ ": isolated Aspec.step_smc pending on a non-crossing")
            | None -> Layers.expect l false (name ^ ": isolated Aspec.step_smc stuck"));
            Layers.expect l
              (Astate.equal a rs'.Diff.spec && diffs = [])
              (name ^ ": isolated Abs.abs differs from the lockstep spec state");
            ok)
  in
  Layers.add_inner l (inner l) ~before;
  l.Layers.est_secs <- e0 +. (Util.now () -. t0 -. !apply_dt);
  result

(** Time [Pagedb.check] on a post-op state ([Drive]'s per-op
    oracle) as an estimate. *)
let pagedb (l : Layers.t) (rs : Diff.rstate) =
  let mon = rs.Diff.os.Os.mon in
  let before = l.Layers.pagedb.Layers.secs in
  let vs =
    Layers.estimate l l.Layers.pagedb (fun () ->
        Pagedb.check mon.Monitor.plat mon.Monitor.mach.State.mem mon.Monitor.pagedb)
  in
  Layers.add_inner l [ l.Layers.pagedb ] ~before;
  Layers.expect l (vs = []) "Pagedb.check found a violation on a replayed state"
