(** Monitor state and shared helpers.

    The verified artefact in the paper is the relation
    [smchandler(s, d, s', d')] over machine states [s] and abstract
    PageDBs [d]; accordingly the monitor state here is exactly that pair
    plus the boot-time platform facts (secure-region geometry, the
    attestation secret, the RNG). SMC and SVC handlers live in
    {!Smc} and {!Svc}; this module holds the state type and the
    page-access and register-discipline helpers they share. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Psr = Komodo_machine.Psr
module Ptable = Komodo_machine.Ptable
module Cost = Komodo_machine.Cost
module Platform = Komodo_tz.Platform
module Layout = Komodo_tz.Layout
module Rng = Komodo_tz.Rng

(** Points in a handler where the fault injector may act. The commit
    point sits between a call's validation phase and its (single,
    atomic) commit — exactly where a concurrent core's write to
    insecure memory, an interrupt assertion, or an entropy-source
    failure would land on real hardware. Lock boundaries are the
    multi-core analogue: the instants just after an acquisition and
    just before a release, where another core's effects become visible
    to (or hidden from) the holder. *)
type phase =
  | Ph_commit of { smc : bool; call : int }
  | Ph_lock of { acquire : bool; cpu : int; page : int; call : int }

type t = {
  mach : State.t;
  pagedb : Pagedb.t;
  plat : Platform.t;
  attest_key : string;
  rng : Rng.t;
  optimised : bool;
      (** Ablation switch (§8.1): when set, the monitor skips the
          conservative FIQ/IRQ banked-register save/restore and the
          unconditional TLB flush — the lemma-justified optimisations
          the paper proposes. Functional behaviour is unchanged. *)
  sink : Komodo_telemetry.Sink.t;
      (** Telemetry sink the instrumented hot paths report to. The
          default {!Komodo_telemetry.Sink.null} makes every
          instrumentation site a single branch: no events are built,
          no cycles charged, and the verified-path semantics are
          unchanged. *)
  spans : Komodo_telemetry.Span.recorder;
      (** Span recorder for the hierarchical profiler; shared, mutable,
          and {!Komodo_telemetry.Span.null} by default — profiling off
          is one branch per site, like the sink. *)
  inject : (phase -> t -> t) option;
      (** Fault-injection hook, fired at every {!phase} boundary. The
          injector may only do what the threat model allows the
          environment to do: write insecure memory, perturb the
          entropy source, assert interrupts. [None] (the default) is
          fault-free execution. *)
  bug : Bugs.t option;
      (** The armed seeded bug: the handlers react only to the
          {!Bugs.Monitor} layer's. *)
}

let of_boot ?(optimised = false) ?(sink = Komodo_telemetry.Sink.null)
    ?(spans = Komodo_telemetry.Span.null) (b : Komodo_tz.Boot.t) =
  {
    mach = b.Komodo_tz.Boot.state;
    pagedb = Pagedb.make ~npages:b.Komodo_tz.Boot.plat.Platform.npages;
    plat = b.Komodo_tz.Boot.plat;
    attest_key = b.Komodo_tz.Boot.attest_key;
    rng = b.Komodo_tz.Boot.rng;
    optimised;
    sink;
    spans;
    inject = None;
    bug = None;
  }

(** Fire the fault-injection hook at a phase boundary (identity when no
    injector is installed). *)
let phase t p = match t.inject with None -> t | Some f -> f p t

let charge n t = { t with mach = State.charge n t.mach }
let cycles t = t.mach.State.cycles

(* -- Telemetry ---------------------------------------------------------- *)

(** Guard for instrumentation sites: when false (the null sink), skip
    building the event altogether. *)
let telemetry_on t = not (Komodo_telemetry.Sink.is_null t.sink)

(** Emit one event, stamped with the current cycle counter. Emission is
    a side effect of the shared sink and charges no modelled cycles. *)
let emit t ev =
  Komodo_telemetry.Sink.emit t.sink { Komodo_telemetry.Event.at = cycles t; ev }

(* -- Spans -------------------------------------------------------------- *)

module Span = Komodo_telemetry.Span

(** Guard for span sites: when false (the null recorder), every helper
    below is one branch — no frames, no allocation, no cycles. *)
let spans_on t = not (Span.is_null t.spans)

let span_enter t name =
  if spans_on t then Span.enter t.spans ~name ~cycles:(cycles t)

let span_exit t = if spans_on t then Span.exit_ t.spans ~cycles:(cycles t)

(** Close the open span and start a sibling — a handler's
    validate-to-commit transition. *)
let span_mark t name =
  if spans_on t then Span.mark t.spans ~name ~cycles:(cycles t)

let span_depth t = Span.depth t.spans

(** Unwind to a depth snapshot taken at handler entry; robust across
    error-path early returns that skipped interior exits. *)
let span_exit_to t d =
  if spans_on t then Span.exit_to t.spans ~depth:d ~cycles:(cycles t)

(* -- Secure-page access ------------------------------------------------ *)

let page_pa t n = Platform.page_base t.plat n

let load_page_word t n idx =
  Memory.load t.mach.State.mem (Word.add (page_pa t n) (Word.of_int (4 * idx)))

let store_page_word t n idx v =
  let mach =
    State.store t.mach (Word.add (page_pa t n) (Word.of_int (4 * idx))) v
  in
  { t with mach }

(** Whole-page contents as bytes (big-endian words), e.g. for
    measurement. *)
let page_bytes t n =
  Memory.to_bytes_be t.mach.State.mem (page_pa t n) Ptable.words_per_page

let zero_page t n =
  let mach =
    {
      t.mach with
      State.mem =
        Memory.zero_range t.mach.State.mem (page_pa t n) Ptable.words_per_page;
    }
  in
  charge (Cost.word_zero Ptable.words_per_page) { t with mach }

(** Copy one page of insecure memory (physical address [src], already
    validated) into secure page [n]; [src = 0] means zero-fill, as in
    the Komodo sources. *)
let fill_page_from_insecure t n ~src =
  if Word.equal src Word.zero then zero_page t n
  else begin
    let mach =
      {
        t.mach with
        State.mem =
          Memory.copy_range t.mach.State.mem ~src ~dst:(page_pa t n)
            Ptable.words_per_page;
      }
    in
    charge (Cost.word_copy Ptable.words_per_page) { t with mach }
  end

(** Mark the TLB inconsistent after a store into a live page table. *)
let dirty_tlb t =
  { t with mach = { t.mach with State.tlb = Komodo_machine.Tlb.mark_inconsistent t.mach.State.tlb } }

(* -- Page-table manipulation ------------------------------------------ *)

(** Install first-level entry [i1] of address space table page [l1pt] to
    point at second-level table page [l2pt]. *)
let install_l1e t ~l1pt ~l2pt ~i1 =
  let t = store_page_word t l1pt i1 (Ptable.make_l1e ~l2pt_base:(page_pa t l2pt)) in
  charge Cost.mem_access (dirty_tlb t)

(** Read the second-level table page for [va] out of [l1pt], if present. *)
let l2pt_for t ~l1pt va =
  span_enter t "ptwalk";
  let l1e = load_page_word t l1pt (Ptable.l1_index va) in
  let r =
    match Ptable.decode_l1e l1e with
    | None -> None
    | Some l2_base -> Platform.page_of_pa t.plat l2_base
  in
  span_exit t;
  r

let read_l2e t ~l2pt va = load_page_word t l2pt (Ptable.l2_index va)

let write_l2e t ~l2pt va e =
  let t = store_page_word t l2pt (Ptable.l2_index va) e in
  charge Cost.mem_access (dirty_tlb t)

(* -- Register discipline ------------------------------------------------
   Across every SMC: non-volatile registers are preserved, other
   non-return registers are zeroed (to prevent information leaks),
   insecure memory is invariant, and we return in the correct mode
   (§5.2). The prototype achieves preservation by conservatively saving
   and restoring every non-volatile and banked register (§8.1). *)

(** Snapshot of everything the monitor must restore before returning to
    the OS. *)
type os_context = { regs : Regs.t }

let save_os_context t =
  (* Non-volatile GP registers only; banked registers are saved on the
     enclave-entry path, where the enclave could clobber them. *)
  let cost = Cost.reg_save (9 (* r4-r12 *) + 2 (* sp,lr *)) in
  (charge cost t, { regs = t.mach.State.regs })

(** Restore the OS's registers, then apply the return-value discipline:
    r0 = error code, r1 = result, r2-r3 zeroed. *)
let restore_os_context t (saved : os_context) ~err ~retval =
  let cost = Cost.reg_save 11 + (4 * Cost.alu) (* volatile clears *) in
  let regs = saved.regs in
  let mode = Mode.Monitor in
  let regs = Regs.write regs ~mode (Regs.R 0) (Errors.to_word err) in
  let regs = Regs.write regs ~mode (Regs.R 1) retval in
  let regs = Regs.write regs ~mode (Regs.R 2) Word.zero in
  let regs = Regs.write regs ~mode (Regs.R 3) Word.zero in
  charge cost { t with mach = { t.mach with State.regs } }

(** Read SMC argument register r[i] (as captured at SMC entry). *)
let arg t i = State.read_reg t.mach (Regs.R i)

(* -- Validation helpers ------------------------------------------------ *)

let valid_pagenr t w =
  let n = Word.to_int w in
  if Word.to_int w < t.plat.Platform.npages then Some n else None

(** The page number argument [w], provided it denotes a free page. *)
let free_page t w =
  match valid_pagenr t w with
  | None -> Error Errors.Invalid_pageno
  | Some n -> if Pagedb.is_free t.pagedb n then Ok n else Error Errors.Page_in_use

(** The page number argument [w], provided it is an address space in
    state [want] (any state if [want] is [None]). *)
let addrspace_page t ?want w =
  match valid_pagenr t w with
  | None -> Error Errors.Invalid_addrspace
  | Some n -> (
      match Pagedb.get t.pagedb n with
      | Pagedb.Addrspace a -> (
          match want with
          | None -> Ok (n, a)
          | Some s ->
              if Pagedb.equal_addrspace_state a.Pagedb.state s then Ok (n, a)
              else
                Error
                  (match s with
                  | Pagedb.Init -> Errors.Already_final
                  | Pagedb.Final -> Errors.Not_final
                  | Pagedb.Stopped -> Errors.Not_stopped))
      | _ -> Error Errors.Invalid_addrspace)
