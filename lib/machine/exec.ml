(** User-mode execution.

    The paper's machine model runs enclave code in user mode under the
    page table in TTBR0, taking an exception (SVC, interrupt, or fault)
    to end each burst of execution. Here we execute flat programs
    ({!Insn.fop}) fetched from enclave memory through the page table —
    code pages are ordinary measured data pages — with every data access
    translated and permission-checked, and external interrupts modelled
    by a step budget ([State.irq_budget]).

    Native programs: a page beginning with {!native_magic} names a
    registered native service by id instead of carrying bytecode. These
    model enclaves (like the notary) whose inner loops would be
    impractical in bytecode; they receive the same translated view of
    memory and must encode any resumable state into registers and enclave
    memory, exactly as real code would. *)

type fault = Alignment | Translation | Permission | Prefetch | Undef_insn
[@@deriving eq, show { with_path = false }]

type event =
  | Ev_svc of Word.t  (** SVC taken; immediate is the call hint *)
  | Ev_irq
  | Ev_fiq
  | Ev_fault of fault
[@@deriving eq, show { with_path = false }]

(** First word of an enclave code page: bytecode program ("KODC"). *)
let code_magic = Word.of_int 0x4B4F4443

(** First word of a native-service code page ("KONV"). *)
let native_magic = Word.of_int 0x4B4F4E56

(* -- Translated user view of memory ----------------------------------- *)

module Uview = struct
  (** Loads and stores as issued by user-mode code: virtual addresses,
      translated through the enclave table in TTBR0, permission-checked.
      Also usable by native programs, which keeps them honest: they can
      only touch memory their page table maps. *)

  (* The check every data access makes: alignment, then translation
     through the table at [ttbr], then (for stores) write permission.
     The interpreter applies it to its burst-local memory. *)
  let data_frame mem ~ttbr va ~write =
    if not (Word.is_aligned va) then Error Alignment
    else
      match Ptable.translate mem ~ttbr va with
      | None -> Error Translation
      | Some f ->
          if write && not f.Ptable.perms.Ptable.w then Error Permission else Ok f

  let translate s va =
    match Ptable.translate s.State.mem ~ttbr:s.State.ttbr0_s va with
    | None -> Error Translation
    | Some f -> Ok f

  let load s va =
    match data_frame s.State.mem ~ttbr:s.State.ttbr0_s va ~write:false with
    | Error f -> Error f
    | Ok f -> Ok (Memory.load s.State.mem f.Ptable.pa)

  let store s va v =
    match data_frame s.State.mem ~ttbr:s.State.ttbr0_s va ~write:true with
    | Error f -> Error f
    | Ok f -> Ok (State.store s f.Ptable.pa v)

  (** Fetch one word with execute permission (instruction fetch). *)
  let fetch s va =
    if not (Word.is_aligned va) then Error Prefetch
    else
      match translate s va with
      | Error _ -> Error Prefetch
      | Ok f ->
          if not f.Ptable.perms.Ptable.x then Error Prefetch
          else Ok (Memory.load s.State.mem f.Ptable.pa)
end

type native_outcome = { nstate : State.t; nevent : event }

(** A native service: runs on the machine state (accessing memory only
    through {!Uview}) and reports how its burst of execution ended. *)
type native = State.t -> native_outcome

(* -- Cycle summaries ------------------------------------------------- *)

(* A cycle the interpreter runs in closed form: ops [head .. last - 1]
   are each [Nop] or [Add]/[Sub rd, rd, #imm], and op [last] is
   [FJmp head]. An iteration reads no memory, no flag and no register it
   does not also write, and cannot end the burst, so [k] iterations from
   the head retire [k * len] ops, cost [k * cost] cycles and add
   [k * delta.(i)] (mod 2^32) to visible register [i]: exactly what [k]
   trips through the step loop do. *)
type cycle = { len : int; cost : int; delta : Word.t array }

(* A decoded bytecode program with its summarisable cycles, indexed by
   the pc of the jump that closes each one. *)
type program = { fops : Insn.fop array; cycles : cycle option array }

let summarisable = function
  | Insn.FI Insn.Nop -> true
  | Insn.FI (Insn.Add (rd, rn, Insn.Imm _) | Insn.Sub (rd, rn, Insn.Imm _)) ->
      Regs.equal_reg rd rn
  | _ -> false

let cycle_of fops ~head ~last =
  let delta = Array.make (Regs.num_gp + 2) Word.zero in
  let cost = ref 0 in
  for pc = head to last do
    cost := !cost + Insn.fop_cost fops.(pc);
    match fops.(pc) with
    | Insn.FI (Insn.Add (rd, _, Insn.Imm v)) ->
        let i = Regs.visible_index rd in
        delta.(i) <- Word.add delta.(i) v
    | Insn.FI (Insn.Sub (rd, _, Insn.Imm v)) ->
        let i = Regs.visible_index rd in
        delta.(i) <- Word.sub delta.(i) v
    | _ -> ()
  done;
  { len = last - head + 1; cost = !cost; delta }

(* One backward scan per back-jump, stopping at the first op that is not
   summarisable; the runs scanned for two jumps never overlap, since a
   jump is not summarisable, so the whole analysis is linear. *)
let program fops =
  let cycles =
    Array.mapi
      (fun last op ->
        match op with
        | Insn.FJmp head when head >= 0 && head <= last ->
            let rec body pc = pc < head || (summarisable fops.(pc) && body (pc - 1)) in
            if body (last - 1) then Some (cycle_of fops ~head ~last) else None
        | _ -> None)
      fops
  in
  { fops; cycles }

(** What an entry-point page contains. *)
type code_image =
  | Bytecode of program
  | Native_ref of int
  | Bad_image  (** unrecognised or undecodable — prefetch abort *)

(* -- Image fetch and the decoded-program cache ------------------------- *)

(* What one page-sized piece of an image fetch depended on: the virtual
   address we translated, where it landed, and the identity of the
   memory chunk backing that physical page. Replaying the translation
   and finding the same frame and the same (never-mutated) chunk proves
   a cached decode would come out identical. *)
type image_dep = { fp_va : Word.t; fp_pa : Word.t; fp_page : Memory.page option }

type cache_entry = {
  ce_entry_va : Word.t;
  ce_deps : image_dep list;
  ce_image : code_image;
}

type image_cache = { mutable entries : cache_entry list (* MRU first *) }

let image_cache () = { entries = [] }

(* Keep a handful of programs: the refinement harness stages a few probe
   programs per world and re-enters them for every trial burst. *)
let cache_capacity = 8

exception Fetch_fail

(* Fetch [n] execute-permitted words from word-aligned [va], one
   translation and one bulk load per virtual page. Equivalent to [n]
   single-word [Uview.fetch]es: translation and the execute bit are
   per-page properties, and any per-word failure is a per-page failure. *)
let fetch_exec_range s va n =
  let out = Array.make n Word.zero in
  let deps = ref [] in
  let cur = ref (Word.to_int va) and pos = ref 0 and left = ref n in
  while !left > 0 do
    let off = (!cur lsr 2) land (Ptable.words_per_page - 1) in
    let span = min (Ptable.words_per_page - off) !left in
    let va_w = Word.of_int !cur in
    (match Uview.translate s va_w with
    | Error _ -> raise Fetch_fail
    | Ok f ->
        if not f.Ptable.perms.Ptable.x then raise Fetch_fail;
        let pa = f.Ptable.pa in
        let ws = Memory.load_range_array s.State.mem pa span in
        Array.blit ws 0 out !pos span;
        deps :=
          { fp_va = va_w; fp_pa = pa; fp_page = Memory.page_at s.State.mem pa }
          :: !deps);
    cur := (!cur + (4 * span)) land 0xFFFF_FFFF;
    pos := !pos + span;
    left := !left - span
  done;
  (out, List.rev !deps)

(** Read and decode the program at [entry_va] (header: magic, length in
    words, then the body), fetching through the page table. *)
let fetch_image_deps s ~entry_va =
  if not (Word.is_aligned entry_va) then (Bad_image, [])
  else
    match fetch_exec_range s entry_va 2 with
    | exception Fetch_fail -> (Bad_image, [])
    | hdr, hdeps ->
        if Word.equal hdr.(0) native_magic then (Native_ref (Word.to_int hdr.(1)), hdeps)
        else if Word.equal hdr.(0) code_magic then begin
          let n = Word.to_int hdr.(1) in
          if n < 0 || n > 4 * Ptable.words_per_page then (Bad_image, [])
          else
            match fetch_exec_range s (Word.add entry_va (Word.of_int 8)) n with
            | exception Fetch_fail -> (Bad_image, [])
            | body, bdeps -> (
                match Insn.decode_flat_array body with
                | Some fops -> (Bytecode (program fops), hdeps @ bdeps)
                | None -> (Bad_image, []))
        end
        else (Bad_image, [])

let fetch_image s ~entry_va = fst (fetch_image_deps s ~entry_va)

(* A cached image is reusable iff every page it was read from still
   translates to the same frame with execute permission and is still
   backed by the same chunk. Pure validation — chunk identity implies
   identical contents, hence an identical fetch-and-decode. *)
let deps_valid s deps =
  List.for_all
    (fun d ->
      match Uview.translate s d.fp_va with
      | Error _ -> false
      | Ok f ->
          f.Ptable.perms.Ptable.x
          && Word.equal f.Ptable.pa d.fp_pa
          && Memory.same_page (Memory.page_at s.State.mem d.fp_pa) d.fp_page)
    deps

let fetch_image_cached cache s ~entry_va =
  match
    List.find_opt
      (fun e -> Word.equal e.ce_entry_va entry_va && deps_valid s e.ce_deps)
      cache.entries
  with
  | Some e ->
      if not (match cache.entries with e' :: _ -> e' == e | [] -> false) then
        cache.entries <- e :: List.filter (fun e' -> e' != e) cache.entries;
      e.ce_image
  | None ->
      let image, deps = fetch_image_deps s ~entry_va in
      (* Only decoded bytecode is worth remembering; header-only images
         and failures are cheap to refetch. *)
      (match image with
      | Bytecode _ ->
          let keep =
            List.filteri
              (fun i e ->
                i < cache_capacity - 1
                && not (Word.equal e.ce_entry_va entry_va))
              cache.entries
          in
          cache.entries <- { ce_entry_va = entry_va; ce_deps = deps; ce_image = image } :: keep
      | Native_ref _ | Bad_image -> ());
      image

(* -- Bytecode interpretation ------------------------------------------ *)

let add_with_flags a b =
  let result = Word.add a b in
  let carry = Word.to_int a + Word.to_int b > 0xFFFF_FFFF in
  let sa = Word.bit a 31 and sb = Word.bit b 31 and sr = Word.bit result 31 in
  let overflow = sa = sb && sr <> sa in
  (result, carry, overflow)

let sub_with_flags a b =
  let result = Word.sub a b in
  let carry = Word.to_int a >= Word.to_int b (* NOT borrow *) in
  let sa = Word.bit a 31 and sb = Word.bit b 31 and sr = Word.bit result 31 in
  let overflow = sa <> sb && sr <> sa in
  (result, carry, overflow)

type inject = {
  due : unit -> (State.t -> State.t * event option) option;
  quiet : unit -> int;
  passed : int -> unit;
}

(* What a burst of user execution changes, held in place while it runs:
   the 15 registers visible in the current mode, the CPSR, memory, the
   cycle counter, the IRQ budget and the retired-instruction count.
   Every other field comes from [base] when the burst is folded back
   into a [State.t] by [leave]: once when it ends, and whenever an
   injection fires mid-burst.

   The burst stores through its own [Memory.owner], so it copies each
   page it writes once, not once per [Str]. The owner rule holds: a
   published chunk is never mutated, and an owned chunk is mutated only
   until release. [leave] is the only place the burst's memory escapes,
   and it releases the owner, so the pre-burst state, every state handed
   to the inject hook and the final state all keep their contents. *)
type burst = {
  base : State.t;
  regs : Word.t array;
  mutable cpsr : Psr.t;
  mutable mem : Memory.t;
  owner : Memory.owner;
  mutable cycles : int;
  mutable budget : int option;
  mutable retired : int;
}

let enter s ~retired =
  {
    base = s;
    regs = Regs.visible s.State.regs ~mode:(State.mode s);
    cpsr = s.State.cpsr;
    mem = s.State.mem;
    owner = Memory.owner ();
    cycles = s.State.cycles;
    budget = s.State.irq_budget;
    retired;
  }

let leave b ~upc ~far =
  Memory.release b.owner;
  let s = b.base in
  {
    s with
    State.regs = Regs.set_visible s.State.regs ~mode:(State.mode s) b.regs;
    cpsr = b.cpsr;
    mem = b.mem;
    cycles = b.cycles;
    irq_budget = b.budget;
    upc;
    far;
  }

let get b r = b.regs.(Regs.visible_index r)
let set b r v = b.regs.(Regs.visible_index r) <- v
let value b = function Insn.Reg r -> get b r | Insn.Imm w -> w
let binop b rd rn o f = set b rd (f (get b rn) (value b o))
let shift b rd rn o f = set b rd (f (get b rn) (Word.to_int (value b o) land 0xFF))
let flags b (result, carry, overflow) = b.cpsr <- Psr.set_flags b.cpsr ~result ~carry ~overflow

(* Run whole iterations of cycle [c] from its head in closed form and
   return the fuel left. It runs as many as fuel, a non-negative budget
   and the hook's quiet boundaries all allow, less one, so the step loop
   still takes every step at which the burst could end; the hook is only
   asked for its quiet count when at least one iteration would run. *)
let summarise ?(inject : inject option) b c fuel =
  let room = match b.budget with Some k when k >= 0 -> Int.min fuel k | _ -> fuel in
  let room =
    match inject with
    | Some h when room >= 2 * c.len -> Int.min room (h.quiet ())
    | _ -> room
  in
  let k = (room / c.len) - 1 in
  if k <= 0 then fuel
  else begin
    let steps = k * c.len and kw = Word.of_int k in
    Array.iteri (fun i d -> b.regs.(i) <- Word.add b.regs.(i) (Word.mul kw d)) c.delta;
    b.cycles <- b.cycles + (k * c.cost);
    b.retired <- b.retired + steps;
    (match b.budget with Some x -> b.budget <- Some (x - steps) | None -> ());
    (match inject with Some h -> h.passed steps | None -> ());
    fuel - steps
  end

(** Run the bytecode program from flat index [start_pc] until an event
    (see the interface). The burst's state lives in a {!burst}; [inject]
    is only handed a [State.t] at a boundary where it has something due. *)
let interpret ?probe ?(inject : inject option) s { fops = prog; cycles } ~start_pc ~fuel =
  let n = Array.length prog in
  let stop b pc ?(far = b.base.State.far) ev =
    (match probe with Some f -> f ~steps:b.retired | None -> ());
    (leave b ~upc:(Word.of_int pc) ~far, ev)
  in
  let rec boundary b pc fuel =
    match match inject with None -> None | Some h -> h.due () with
    | None -> step b pc fuel
    | Some fire -> (
        let s, forced = fire (leave b ~upc:b.base.State.upc ~far:b.base.State.far) in
        let b = enter s ~retired:b.retired in
        match forced with Some ev -> stop b pc ev | None -> step b pc fuel)
  and step b pc fuel =
    if fuel <= 0 then stop b pc Ev_irq
    else
      match b.budget with
      | Some 0 -> stop b pc Ev_irq
      | budget -> (
          (match budget with Some k -> b.budget <- Some (k - 1) | None -> ());
          if pc < 0 || pc >= n then stop b pc (Ev_fault Prefetch)
          else
            let op = prog.(pc) in
            b.cycles <- b.cycles + Insn.fop_cost op;
            b.retired <- b.retired + 1;
            let next = pc + 1 and fuel = fuel - 1 in
            match op with
            | Insn.FJmp t -> (
                match cycles.(pc) with
                | None -> boundary b t fuel
                | Some c -> boundary b t (summarise ?inject b c fuel))
            | Insn.FJcc (c, t) -> boundary b (if Insn.holds c b.cpsr then t else next) fuel
            (* The banked PC of an SVC points past it, so a return
               resumes after it; a fault reports the faulting
               instruction itself, so a dispatcher can fix the mapping
               and retry it. *)
            | Insn.FI (Svc imm) -> stop b next (Ev_svc imm)
            | Insn.FI Udf -> stop b pc (Ev_fault Undef_insn)
            | Insn.FI ((Ldr (rd, rn, o) | Str (rd, rn, o)) as i) -> (
                let write = match i with Str _ -> true | _ -> false in
                let va = Word.add (get b rn) (value b o) in
                match Uview.data_frame b.mem ~ttbr:b.base.State.ttbr0_s va ~write with
                | Error f -> stop b pc ~far:va (Ev_fault f)
                | Ok f ->
                    if write then b.mem <- Memory.store_as b.owner b.mem f.Ptable.pa (get b rd)
                    else set b rd (Memory.load b.mem f.Ptable.pa);
                    boundary b next fuel)
            | Insn.FI i ->
                (match i with
                | Mov (rd, o) -> set b rd (value b o)
                | Mvn (rd, o) -> set b rd (Word.lognot (value b o))
                | Add (rd, rn, o) -> binop b rd rn o Word.add
                | Sub (rd, rn, o) -> binop b rd rn o Word.sub
                | Rsb (rd, rn, o) -> binop b rd rn o (fun a v -> Word.sub v a)
                | Mul (rd, rn, rm) -> set b rd (Word.mul (get b rn) (get b rm))
                | And_ (rd, rn, o) -> binop b rd rn o Word.logand
                | Orr (rd, rn, o) -> binop b rd rn o Word.logor
                | Eor (rd, rn, o) -> binop b rd rn o Word.logxor
                | Bic (rd, rn, o) -> binop b rd rn o (fun a v -> Word.logand a (Word.lognot v))
                | Lsl (rd, rn, o) -> shift b rd rn o Word.shift_left
                | Lsr (rd, rn, o) -> shift b rd rn o Word.shift_right_logical
                | Asr (rd, rn, o) -> shift b rd rn o Word.shift_right_arith
                | Ror (rd, rn, o) -> shift b rd rn o Word.rotate_right
                | Cmp (rn, o) -> flags b (sub_with_flags (get b rn) (value b o))
                | Cmn (rn, o) -> flags b (add_with_flags (get b rn) (value b o))
                | Tst (rn, o) ->
                    let result = Word.logand (get b rn) (value b o) in
                    b.cpsr <-
                      Psr.set_flags b.cpsr ~result ~carry:b.cpsr.Psr.c ~overflow:b.cpsr.Psr.v
                | Nop | Ldr _ | Str _ | Svc _ | Udf -> ());
                boundary b next fuel)
  in
  boundary (enter s ~retired:0) start_pc fuel

let run_bytecode ?probe ?inject s fops ~start_pc ~fuel =
  interpret ?probe ?inject s (program fops) ~start_pc ~fuel

(** Execute user code at/under [entry_va] starting from flat index
    [start_pc], dispatching native services through [native]. [cache],
    if given, memoises decoded bytecode across bursts (validated against
    the page table and page chunk identity on every entry). *)
let run ?probe ?inject ?cache s ~entry_va ~start_pc ~fuel
    ~(native : int -> native option) =
  let image =
    match cache with
    | Some c -> fetch_image_cached c s ~entry_va
    | None -> fetch_image s ~entry_va
  in
  match image with
  | Bad_image -> (s, Ev_fault Prefetch)
  | Native_ref id -> (
      match native id with
      | None -> (s, Ev_fault Undef_insn)
      | Some prog ->
          let { nstate; nevent } = prog s in
          (* Native bursts retire no modelled instructions. *)
          (match probe with Some f -> f ~steps:0 | None -> ());
          (nstate, nevent))
  | Bytecode prog -> interpret ?probe ?inject s prog ~start_pc ~fuel
