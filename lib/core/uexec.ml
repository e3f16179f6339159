(** User-mode executors.

    The monitor's Enter/Resume path is parametric in *how* user code
    runs, mirroring the two levels at which the paper treats enclave
    execution:

    - {!concrete} actually interprets the enclave's code (bytecode or a
      registered native service) through the page table — what the
      hardware does;
    - {!havoc} is the paper's specification model (§5.1, §6.3): user
      execution trashes all user-visible registers and all user-writable
      pages, modelled as uninterpreted-but-deterministic functions of
      (i) the user-visible state and (ii) a non-determinism seed.
      Updates to *insecure* writable pages depend only on the seed, not
      on user state, capturing that a correct specification cannot let
      secrets flow to insecure memory implicitly. The exception ending
      execution is likewise drawn from the seed alone, so equal seeds
      give equal declassified outputs — the paper's "same seed for the
      observer enclave" hypothesis.

    The noninterference harness runs the monitor with {!havoc}; the
    examples and benchmarks run it with {!concrete}. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Regs = Komodo_machine.Regs
module Ptable = Komodo_machine.Ptable
module Exec = Komodo_machine.Exec
module Sha256 = Komodo_crypto.Sha256

type result = { mach : State.t; event : Exec.event }

type t = {
  name : string;
  run : State.t -> entry_va:Word.t -> start_pc:int -> iter:int -> result;
}

(* -- Concrete interpretation ------------------------------------------ *)

let default_fuel = 2_000_000

let concrete ?(fuel = default_fuel) ?(native = fun _ -> None) ?probe ?inject () =
  (* One decoded-program cache per executor (one executor per booted
     world): probe programs are re-entered for every burst, and the
     cache revalidates against page chunk identity on each entry. *)
  let cache = Exec.image_cache () in
  let run mach ~entry_va ~start_pc ~iter:_ =
    let mach, event =
      Exec.run ?probe ?inject ~cache mach ~entry_va ~start_pc ~fuel ~native
    in
    { mach; event }
  in
  { name = "concrete"; run }

(* -- Specification-level havoc model ---------------------------------- *)

(** A deterministic word stream expanded from a SHA-256 key by counter
    mode. *)
module Stream = struct
  type s = { key : string; mutable block : string; mutable ctr : int; mutable off : int }

  let make key = { key; block = ""; ctr = 0; off = 32 }

  let next t =
    if t.off >= 32 then begin
      t.block <- Sha256.digest (t.key ^ string_of_int t.ctr);
      t.ctr <- t.ctr + 1;
      t.off <- 0
    end;
    let w = Word.of_bytes_be t.block t.off in
    t.off <- t.off + 4;
    w
end

(** Serialise the user-visible state: user registers, flags, the PC, and
    the (virtual address, contents) of every page reachable writable
    through the current page table. This is the input of the paper's
    uninterpreted update functions. *)
let visible_state_key mach =
  let ctx = Sha256.init in
  let ctx =
    List.fold_left Sha256.absorb_word ctx (Regs.user_visible mach.State.regs)
  in
  let ctx = Sha256.absorb_word ctx (Komodo_machine.Psr.encode mach.State.cpsr) in
  let ctx = Sha256.absorb_word ctx mach.State.upc in
  let writable = Ptable.writable_pages mach.State.mem ~ttbr:mach.State.ttbr0_s in
  let ctx =
    List.fold_left
      (fun ctx (va, pa, ns) ->
        let ctx = Sha256.absorb_word ctx va in
        let ctx = Sha256.absorb ctx (if ns then "ns" else "s!") in
        Memory.absorb_range mach.State.mem pa Ptable.words_per_page ~init:ctx
          ~f:Sha256.absorb_words)
      ctx writable
  in
  Sha256.finalize ctx

(** Which exception the havocked execution ends with, and with what
    call/arguments. Chosen from the seed alone (see above). *)
type havoc_event =
  | H_exit of Word.t
  | H_interrupt
  | H_fault
  | H_svc of Word.t array  (** r0 = call number, r1.. = args *)

let choose_event ~dynamic stream =
  let w = Word.to_int (Stream.next stream) in
  match w mod (if dynamic then 11 else 4) with
  | 0 | 1 -> H_exit (Stream.next stream)
  | 2 -> H_interrupt
  | 3 -> H_fault
  | 4 ->
      (* GetRandom *)
      H_svc [| Word.of_int 1 |]
  | 5 ->
      (* MapData of a seed-chosen spare page at a seed-chosen address *)
      let spare = Stream.next stream in
      let va =
        Word.of_int
          ((Word.to_int (Stream.next stream) land 0x3FFF_F000) lor 0x3 (* rw *))
      in
      H_svc [| Word.of_int 5; spare; va |]
  | 6 ->
      (* UnmapData *)
      let pg = Stream.next stream in
      let va =
        Word.of_int ((Word.to_int (Stream.next stream) land 0x3FFF_F000) lor 0x1)
      in
      H_svc [| Word.of_int 6; pg; va |]
  | 7 ->
      (* InitL2PTable from a spare page *)
      let spare = Stream.next stream in
      let idx = Word.of_int (Word.to_int (Stream.next stream) land 0xFF) in
      H_svc [| Word.of_int 4; spare; idx |]
  | 8 ->
      (* Attest to seed-chosen data; the MAC depends only on the boot
         key and the enclave's measurement. *)
      H_svc (Array.append [| Word.of_int 2 |] (Array.init 8 (fun _ -> Stream.next stream)))
  | 9 ->
      (* SetDispatcher at a seed-chosen address (often invalid). *)
      let va = Word.of_int (Word.to_int (Stream.next stream) land 0x3FFF_F000) in
      H_svc [| Word.of_int 7; va |]
  | _ ->
      (* ResumeFaulted (usually with nothing parked: the error path;
         with a dispatcher registered, the full upcall machinery). *)
      H_svc [| Word.of_int 8 |]

(** The havoc executor. [seed] is the non-determinism source; [dynamic]
    additionally lets the modelled enclave issue dynamic-memory SVCs
    (the declassification channel of §6.2). *)
let havoc ?(dynamic = false) ~seed () =
  let run mach ~entry_va ~start_pc ~iter =
    let tag = Printf.sprintf "|%d|%d|%d" seed start_pc iter in
    let secret_stream =
      Stream.make (Sha256.digest (visible_state_key mach ^ Word.to_bytes_be entry_va ^ tag))
    in
    let public_stream = Stream.make (Sha256.digest ("public" ^ tag)) in
    (* Havoc every user-visible register from the secret stream. *)
    let regs =
      Regs.set_user_visible mach.State.regs
        (List.init 15 (fun _ -> Stream.next secret_stream))
    in
    let mach = { mach with State.regs } in
    (* Havoc all writable pages: secure from the secret stream, insecure
       from the public stream (contents written to insecure memory must
       not depend on user state in the spec model). *)
    let writable = Ptable.writable_pages mach.State.mem ~ttbr:mach.State.ttbr0_s in
    let mach =
      List.fold_left
        (fun mach (_va, pa, ns) ->
          let stream = if ns then public_stream else secret_stream in
          (* Draw the whole page from the stream (in address order, as
             the per-word loop did) and store it as one chunk swap. *)
          let ws = Array.make Ptable.words_per_page Word.zero in
          for i = 0 to Ptable.words_per_page - 1 do
            ws.(i) <- Stream.next stream
          done;
          { mach with State.mem = Memory.store_range_array mach.State.mem pa ws })
        mach writable
    in
    let mach = { mach with State.upc = Word.of_int (Word.to_int (Stream.next public_stream) land 0xFFFF) } in
    let mach = State.charge 64 mach in
    match choose_event ~dynamic public_stream with
    | H_exit v ->
        let regs = Regs.write mach.State.regs ~mode:Komodo_machine.Mode.User (Regs.R 0) Word.zero in
        let regs = Regs.write regs ~mode:Komodo_machine.Mode.User (Regs.R 1) v in
        ({ mach = { mach with State.regs }; event = Exec.Ev_svc Word.zero })
    | H_interrupt -> { mach; event = Exec.Ev_irq }
    | H_fault -> { mach; event = Exec.Ev_fault Exec.Translation }
    | H_svc args ->
        let regs =
          Array.to_list args
          |> List.mapi (fun i v -> (i, v))
          |> List.fold_left
               (fun regs (i, v) ->
                 Regs.write regs ~mode:Komodo_machine.Mode.User (Regs.R i) v)
               mach.State.regs
        in
        { mach = { mach with State.regs }; event = Exec.Ev_svc Word.zero }
  in
  { name = (if dynamic then "havoc-dynamic" else "havoc"); run }
