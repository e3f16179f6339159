(** True multi-core execution of the monitor (paper §9.2, taken further).

    The paper's proposed multi-core route is a single global monitor
    lock. Earlier versions of this module modelled exactly that — a
    call serialiser charging lock cycles. This one executes genuinely
    interleaved calls: each OS core drives its own per-CPU machine bank
    ({!Komodo_machine.Multicore}) against one shared memory and one
    shared PageDB, and mutual exclusion is the fine-grained per-page
    locking of {!Komodo_core.Lock}.

    Each in-flight call is a small state machine the seeded scheduler
    advances one micro-step at a time:

    - {e start}: compute the call's complete lock footprint;
    - {e acquire}: one lock per step, in the global (ascending
      page-number) order; contention spins, charging [spin_cost] per
      iteration to the waiting core; once all locks are held the
      footprint is recomputed and, if the PageDB changed its shape
      (optimistic footprints can be stale), everything is released and
      the call restarts;
    - {e validate}: run the whole sequential monitor call on this CPU's
      view of the current shared state, under the locks — this is the
      linearisation point — and extract the write-set (changed PageDB
      entries, changed memory pages, the CPU's bank);
    - {e commit}: install the write-set into the shared state page by
      page, release the locks, retire the call.

    Separating validate from commit is what makes lock bugs
    {e observable}: with a complete footprint nothing can interleave
    between the two; with a missing lock ([Missing_page_lock]) two
    calls both validate against the same free page and both commit,
    corrupting ownership; with a wrong acquisition order
    ([Lock_inversion]) two calls hold one lock each and wait on the
    other's — detected by walking the wait-for chain, which is
    functional (a core waits on at most one lock, each lock has one
    holder), so deadlock detection is a single pointer chase.

    Scheduling decisions come from {!Komodo_rand.Seedsplit}, so a run
    is a pure function of [(seed, scripts)] at any host parallelism;
    the ready set is array-backed (swap-remove) so a step costs O(1)
    regardless of core count. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Multicore = Komodo_machine.Multicore
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Lock = Komodo_core.Lock
module Abi = Komodo_core.Abi
module Platform = Komodo_tz.Platform
module Seedsplit = Komodo_rand.Seedsplit

type call = { call : int; args : Word.t list }

(* -- Re-armable lock-discipline bugs ------------------------------------ *)

type bug = Missing_page_lock | Lock_inversion

let bug_name = function
  | Missing_page_lock -> "missing_page_lock"
  | Lock_inversion -> "lock_inversion"

let bugs = [ Missing_page_lock; Lock_inversion ]
let bug_of_string s = List.find_opt (fun b -> bug_name b = s) bugs

(* -- Costs and statistics ----------------------------------------------- *)

(** Cost of an uncontended acquire/release pair (LDREX/STREX + barrier)
    and of each spin iteration while waiting. *)
let lock_cost = 40

let spin_cost = 12

type stats = {
  total_calls : int;
  contended_acquisitions : int;
      (** acquisitions that spun at least once before succeeding *)
  uncontended_acquisitions : int;
  spin_iterations : int;
  retries : int;  (** footprint-went-stale release-and-restart events *)
  lock_cycles : int;
      (** always [lock_cost * (contended + uncontended) + spin_cost *
          spin_iterations] — the identity the qcheck suite pins *)
}

(* -- Run records --------------------------------------------------------- *)

type waiter = { w_cpu : int; w_holds : int list; w_wants : int }
type deadlock = { dl_cycle : waiter list }

type outcome = {
  os : Os.t;
  results : (int * (Errors.t * Word.t) list) list;
  stats : stats;
  history : Lock.t list list;
      (** lock acquisition order per retired call, in completion order *)
  deadlock : deadlock option;
}

(* -- Per-CPU call state machine ----------------------------------------- *)

type acq = {
  a_op : call;
  a_fp : Lock.t list;  (** footprint in acquisition order *)
  a_todo : Lock.t list;
  a_held : Lock.t list;  (** reverse acquisition order *)
  a_spins : int;  (** spins on the current head of [a_todo] *)
}

type vld = {
  v_op : call;
  v_held : Lock.t list;
  v_db_writes : (int * Pagedb.entry) list;
  v_mem_src : Memory.t;  (** post-validation memory to copy pages from *)
  v_mem_pages : int list;  (** physical pages the call wrote *)
  v_os : Os.t;  (** the validated resulting OS (bank, rng, ...) *)
  v_err : Errors.t;
  v_ret : Word.t;
}

type cphase = Idle | Acquiring of acq | Validated of vld

let same_pages a b =
  let pages l = List.sort Int.compare (List.map (fun x -> x.Lock.page) l) in
  pages a = pages b

let run ?(seed = 1) ?bug (os0 : Os.t) ~(scripts : call list list) =
  let ncpus = List.length scripts in
  if ncpus = 0 then invalid_arg "Smp.run: no scripts";
  let queues = Array.of_list (List.map Array.of_list scripts) in
  let qpos = Array.make ncpus 0 in
  let npages = os0.Os.mon.Monitor.plat.Platform.npages in
  (* Authoritative shared state: [mc] holds the banks and the one true
     memory; [os] holds the one true PageDB plus the monitor-global
     fields (rng, keys, telemetry, injector) — its [mach] is a stale
     placeholder until the final reassembly. *)
  let mc = ref (Multicore.create ~cpus:ncpus os0.Os.mon.Monitor.mach) in
  let os = ref os0 in
  let locks = ref Lock.empty in
  let phase = Array.make ncpus Idle in
  let waiting : (Lock.t * int) option array = Array.make ncpus None in
  let results = Array.make ncpus [] in
  let history = ref [] in
  let deadlock = ref None in
  let total = ref 0 and contended = ref 0 and uncontended = ref 0 in
  let spins_total = ref 0 and retries = ref 0 and lock_cycles = ref 0 in

  (* The footprint a call will lock — where the re-armable bugs live.
     [Missing_page_lock] drops MapSecure's data-page lock (the classic
     "the addrspace lock surely covers it" slip); [Lock_inversion]
     acquires Remove's footprint in descending order. *)
  let footprint_of op =
    let args = List.map Word.to_int op.args in
    let fp =
      Lock.footprint (!os).Os.mon.Monitor.pagedb ~npages ~call:op.call ~args
    in
    match bug with
    | Some Missing_page_lock when op.call = Abi.smc_map_secure ->
        List.filter (fun l -> l.Lock.level <> Lock.Page) fp
    | Some Lock_inversion when op.call = Abi.smc_remove -> List.rev fp
    | _ -> fp
  in

  (* Fire the fault injector at a lock boundary. The injector acts on a
     monitor built from this CPU's current view; its global effects
     (insecure-memory writes, rng perturbation, pended interrupts) are
     folded back into the shared state. *)
  let fire_lock ~acquire ~cpu ~page ~call =
    let mon = (!os).Os.mon in
    match mon.Monitor.inject with
    | None -> ()
    | Some _ ->
        let mon = { mon with Monitor.mach = Multicore.view !mc cpu } in
        let mon' =
          Monitor.phase mon (Monitor.Ph_lock { acquire; cpu; page; call })
        in
        mc :=
          Multicore.set_mem
            (Multicore.commit_bank !mc cpu mon'.Monitor.mach)
            mon'.Monitor.mach.State.mem;
        os :=
          { !os with
            Os.mon = { mon' with Monitor.mach = (!os).Os.mon.Monitor.mach } }
  in

  (* Array-backed ready set: O(1) pick, O(1) swap-remove. [ready] is a
     permutation of the CPUs with the schedulable ones in a prefix of
     length [nready]; [pos] is its inverse. *)
  let ready = Array.init ncpus (fun i -> i) in
  let pos = Array.init ncpus (fun i -> i) in
  let nready = ref ncpus in
  let deschedule c =
    let p = pos.(c) in
    if p < !nready then begin
      let last = !nready - 1 in
      let l = ready.(last) in
      ready.(p) <- l;
      pos.(l) <- p;
      ready.(last) <- c;
      pos.(c) <- last;
      nready := last
    end
  in
  Array.iteri (fun c q -> if Array.length q = 0 then deschedule c) queues;

  (* Wait-for chain walk. Each core waits on at most one lock and each
     lock has one holder, so the wait-for graph is functional: follow
     it from the core that just started spinning; returning to the
     start is a deadlock, reaching a running core is mere contention.
     A [waiting] entry records the holder observed at that core's last
     failed spin, which can be stale (the holder released and the
     waiter has not been rescheduled yet), so each edge is validated
     against the live lock table — in a true deadlock every member is
     blocked forever, so its edges are always current. *)
  let check_deadlock c =
    let rec follow cur seen =
      match waiting.(cur) with
      | None -> None
      | Some (l, h) ->
          if Lock.owner !locks l <> Some h then None
          else if h = c then Some (List.rev (cur :: seen))
          else if List.mem h seen then None
          else follow h (cur :: seen)
    in
    match follow c [] with
    | None -> ()
    | Some cyc ->
        let waiter cpu =
          let holds =
            List.sort Int.compare
              (List.map (fun l -> l.Lock.page) (Lock.held_by !locks ~cpu))
          in
          let wants =
            match waiting.(cpu) with Some (l, _) -> l.Lock.page | None -> -1
          in
          { w_cpu = cpu; w_holds = holds; w_wants = wants }
        in
        deadlock := Some { dl_cycle = List.map waiter cyc }
  in

  let release_all ~cpu ~call held =
    List.iter
      (fun l ->
        fire_lock ~acquire:false ~cpu ~page:l.Lock.page ~call;
        locks := Lock.release !locks l ~cpu)
      held
  in

  let step c =
    match phase.(c) with
    | Idle ->
        if qpos.(c) >= Array.length queues.(c) then deschedule c
        else begin
          let op = queues.(c).(qpos.(c)) in
          qpos.(c) <- qpos.(c) + 1;
          let fp = footprint_of op in
          phase.(c) <-
            Acquiring
              {
                a_op = op;
                a_fp = fp;
                a_todo = fp;
                a_held = [];
                a_spins = 0;
              }
        end
    | Acquiring ({ a_todo = l :: rest; _ } as a) -> (
        match Lock.acquire !locks l ~cpu:c with
        | Ok tbl ->
            locks := tbl;
            lock_cycles := !lock_cycles + lock_cost;
            mc := Multicore.charge !mc c lock_cost;
            if a.a_spins > 0 then incr contended else incr uncontended;
            waiting.(c) <- None;
            fire_lock ~acquire:true ~cpu:c ~page:l.Lock.page ~call:a.a_op.call;
            phase.(c) <-
              Acquiring { a with a_todo = rest; a_held = l :: a.a_held; a_spins = 0 }
        | Error holder ->
            lock_cycles := !lock_cycles + spin_cost;
            mc := Multicore.charge !mc c spin_cost;
            incr spins_total;
            phase.(c) <- Acquiring { a with a_spins = a.a_spins + 1 };
            waiting.(c) <- Some (l, holder);
            check_deadlock c)
    | Acquiring ({ a_todo = []; _ } as a) ->
        let fp' = footprint_of a.a_op in
        if not (same_pages fp' a.a_fp) then begin
          (* The footprint was computed optimistically and the PageDB
             changed shape under it (e.g. the page Remove targets
             changed owner): release and restart against the new
             shape. *)
          release_all ~cpu:c ~call:a.a_op.call a.a_held;
          incr retries;
          phase.(c) <-
            Acquiring
              { a with a_fp = fp'; a_todo = fp'; a_held = []; a_spins = 0 }
        end
        else begin
          (* Validate: the whole sequential monitor call, on this CPU's
             view of the current shared state, under the locks. This is
             the call's linearisation point, and where its telemetry
             events reach the monitor's sink. *)
          let view = Multicore.view !mc c in
          let os_c =
            { !os with Os.mon = { (!os).Os.mon with Monitor.mach = view } }
          in
          let os', err, ret = Os.smc os_c ~call:a.a_op.call ~args:a.a_op.args in
          let before_db = (!os).Os.mon.Monitor.pagedb in
          let after_db = os'.Os.mon.Monitor.pagedb in
          let db_writes = ref [] in
          for p = npages - 1 downto 0 do
            let e = Pagedb.get after_db p in
            if not (Pagedb.equal_entry (Pagedb.get before_db p) e) then
              db_writes := (p, e) :: !db_writes
          done;
          let mem' = os'.Os.mon.Monitor.mach.State.mem in
          phase.(c) <-
            Validated
              {
                v_op = a.a_op;
                v_held = a.a_held;
                v_db_writes = !db_writes;
                v_mem_src = mem';
                v_mem_pages = Memory.diff_pages view.State.mem mem';
                v_os = os';
                v_err = err;
                v_ret = ret;
              }
        end
    | Validated v ->
        (* Commit: install the write-set into the shared state. Under a
           complete footprint nothing overlapping can have moved since
           validation; with a missing lock this is exactly where the
           lost update lands. *)
        let mon_g = (!os).Os.mon in
        let new_db =
          List.fold_left
            (fun db (p, e) -> Pagedb.set db p e)
            mon_g.Monitor.pagedb v.v_db_writes
        in
        let new_mem =
          List.fold_left
            (fun m pg -> Memory.blit_page ~src:v.v_mem_src m pg)
            (Multicore.view !mc c).State.mem v.v_mem_pages
        in
        mc :=
          Multicore.set_mem
            (Multicore.commit_bank !mc c v.v_os.Os.mon.Monitor.mach)
            new_mem;
        (* Monitor-global fields (rng, keys) adopt the validated values;
           the construction-call alphabet never races on them. *)
        os :=
          { v.v_os with
            Os.mon =
              {
                v.v_os.Os.mon with
                Monitor.pagedb = new_db;
                Monitor.mach = mon_g.Monitor.mach;
              }
          };
        history := List.rev v.v_held :: !history;
        results.(c) <- (v.v_err, v.v_ret) :: results.(c);
        incr total;
        release_all ~cpu:c ~call:v.v_op.call v.v_held;
        phase.(c) <- Idle;
        if qpos.(c) >= Array.length queues.(c) then deschedule c
  in

  let sched = Seedsplit.stream ~root:seed () in
  let total_ops = Array.fold_left (fun a q -> a + Array.length q) 0 queues in
  let tick_limit = (2000 * (total_ops + 1) * ncpus) + 10_000 in
  let ticks = ref 0 in
  while !nready > 0 && !deadlock = None do
    incr ticks;
    if !ticks > tick_limit then
      failwith "Smp.run: livelock (tick bound exceeded)";
    step ready.(Seedsplit.next sched mod !nready)
  done;

  let final_os =
    { !os with
      Os.mon = { (!os).Os.mon with Monitor.mach = Multicore.view !mc 0 } }
  in
  {
    os = final_os;
    results =
      List.init ncpus (fun c -> (c, List.rev results.(c)));
    stats =
      {
        total_calls = !total;
        contended_acquisitions = !contended;
        uncontended_acquisitions = !uncontended;
        spin_iterations = !spins_total;
        retries = !retries;
        lock_cycles = !lock_cycles;
      };
    history = List.rev !history;
    deadlock = !deadlock;
  }

(** Convenience: a construction script building a minimal enclave out of
    the five given pages (addrspace, l1pt, l2pt, data, thread). *)
let build_script ~pages:(asp, l1, l2, data, thread) =
  [
    { call = Abi.smc_init_addrspace; args = [ Word.of_int asp; Word.of_int l1 ] };
    { call = Abi.smc_init_l2ptable; args = [ Word.of_int asp; Word.of_int l2; Word.zero ] };
    {
      call = Abi.smc_map_secure;
      args =
        [
          Word.of_int asp;
          Word.of_int data;
          Word.of_int 0x1003 (* va 0x1000 | RW *);
          Word.zero;
        ];
    };
    { call = Abi.smc_init_thread; args = [ Word.of_int asp; Word.of_int thread; Word.zero ] };
    { call = Abi.smc_finalise; args = [ Word.of_int asp ] };
  ]
