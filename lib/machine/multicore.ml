(** N-CPU machine state: per-CPU architectural state sharing one memory.

    The paper's machine model (§5.1) is single-core; its proposed
    multi-core route (§9.2) keeps one memory and replicates the
    architectural per-CPU state. This module is exactly that split of
    {!State.t}: each CPU keeps a whole [State.t] — general registers
    with their banking, PSR/mode/world, the MMU base registers and TLB,
    the user PC, fault address, cycle counter and interrupt budget —
    whose [mem] is never read (it holds {!Memory.empty}, so a CPU pins
    no old chunks); the copy-on-write {!Memory.t} is shared.

    [view] puts the shared memory into one CPU's state, so the whole
    single-core monitor runs unchanged against a per-CPU view;
    [commit_bank] keeps a resulting state's per-CPU half (deliberately
    {e not} its memory — memory effects are published separately, page
    by page, by the stepper's commit phase, which is what makes racy
    lost updates expressible when a lock is missing). *)

type t = { banks : State.t array; mem : Memory.t }

let bank (s : State.t) = { s with State.mem = Memory.empty }

(** Boot an [cpus]-core machine from a single-core state: every CPU
    starts with a copy of the boot state (as secondary cores released
    from the boot hold pen would), memory is shared. *)
let create ~cpus (s : State.t) =
  if cpus < 1 then invalid_arg "Multicore.create: at least one CPU";
  { banks = Array.make cpus (bank s); mem = s.State.mem }

let check_cpu t c =
  if c < 0 || c >= Array.length t.banks then
    invalid_arg (Printf.sprintf "Multicore: no CPU %d" c)

(** The full architectural state CPU [c] observes: its own state plus
    the shared memory. *)
let view t c : State.t =
  check_cpu t c;
  { (t.banks.(c)) with State.mem = t.mem }

let update t c f =
  check_cpu t c;
  let banks = Array.copy t.banks in
  banks.(c) <- f banks.(c);
  { t with banks }

(** Publish CPU [c]'s per-CPU effects from a resulting state. The
    state's memory is ignored — memory is committed page-wise via
    {!set_mem}/{!Memory.blit_page} by whoever owns the locks. *)
let commit_bank t c (s : State.t) = update t c (fun _ -> bank s)

let set_mem t mem = { t with mem }

(** Charge cycles to one CPU without building a full view. *)
let charge t c n = update t c (State.charge n)
