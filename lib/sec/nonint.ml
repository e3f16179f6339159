(** The noninterference harness: an executable rendition of Theorem 6.1.

    The paper proves, by bisimulation over pairs of states related by
    ≈adv (confidentiality) or ≈enc (integrity), that every monitor call
    preserves the relation. We cannot re-run the proof, but we can run
    the *statement*: construct two whole-system states related by the
    relation, fire the same adversarial monitor-call sequence at both
    (with equal non-determinism seeds, the paper's §6.3 hypothesis), and
    check the relation after every call — plus the stronger per-call
    observation that the declassified outputs (error code and return
    value, §6.2) are equal.

    Confidentiality runs differ only in a victim enclave's secrets
    (its data-page contents); integrity runs differ in adversary-
    controlled state (insecure memory, OS scratch registers, another
    enclave's data), and we check the victim's pages are bit-invariant.

    User-mode execution uses the {!Komodo_core.Uexec.havoc} spec model:
    updates are uninterpreted functions of visible state and seed, with
    insecure-memory updates and the terminating exception drawn from the
    seed alone. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Memory = Komodo_machine.Memory
module Regs = Komodo_machine.Regs
module Mode = Komodo_machine.Mode
module Ptable = Komodo_machine.Ptable
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Abi = Komodo_core.Abi
module Errors = Komodo_core.Errors
module Uexec = Komodo_core.Uexec
module Mapping = Komodo_core.Mapping
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs

(* -- Test world ---------------------------------------------------------
   A small world: a victim enclave and a colluding (adversary) enclave,
   both with a code page, a data page and a thread, plus spare pages
   and free pages for the adversary to play with. *)

type world = {
  os_a : Os.t;
  os_b : Os.t;
  victim : Loader.handle;
  adv : Loader.handle;
}

let basic_image ~name ~shared_target =
  let code = Uprog.to_page_images (Uprog.code_words Progs.add_args) in
  let img = Image.empty ~name in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img =
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false)
      ~contents:(String.make Ptable.page_size '\000')
  in
  let img =
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
      ~target:shared_target
  in
  let img = Image.add_thread img ~entry:Word.zero in
  Image.with_spares img 2

(** Write [contents] directly into secure data page [n] — a test-only
    backdoor standing in for "the enclave previously computed different
    secrets". Not reachable through any API. *)
let inject_secret (mon : Monitor.t) n contents =
  let mem =
    Memory.of_bytes_be mon.Monitor.mach.State.mem (Monitor.page_pa mon n) contents
  in
  { mon with Monitor.mach = { mon.Monitor.mach with State.mem } }

let page_of_byte c = String.make Ptable.page_size c

(** Build the paired world. [perturb] decides what differs between run
    A and run B. *)
let make_world ~seed ~(perturb : [ `Victim_secret | `Adversary_state ]) =
  let exec = Uexec.havoc ~dynamic:true ~seed () in
  let os = Os.boot ~seed ~npages:48 ~exec () in
  let victim_img =
    basic_image ~name:"victim" ~shared_target:Os.shared_base
  in
  let adv_img =
    basic_image ~name:"adversary"
      ~shared_target:(Word.add Os.shared_base (Word.of_int Ptable.page_size))
  in
  let os, victim =
    match Loader.load os victim_img with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "victim load: %a" Loader.pp_error e)
  in
  let os, adv =
    match Loader.load os adv_img with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "adversary load: %a" Loader.pp_error e)
  in
  let victim_data = List.nth victim.Loader.data_pages 1 in
  match perturb with
  | `Victim_secret ->
      (* Identical worlds except the victim's secret data page. *)
      let os_a = { os with Os.mon = inject_secret os.Os.mon victim_data (page_of_byte 'A') } in
      let os_b = { os with Os.mon = inject_secret os.Os.mon victim_data (page_of_byte 'B') } in
      { os_a; os_b; victim; adv }
  | `Adversary_state ->
      (* Identical victims; run B's adversary-controlled state differs:
         insecure memory noise, OS scratch registers, and the colluding
         enclave's data contents. *)
      let adv_data = List.nth adv.Loader.data_pages 1 in
      let os_a = os in
      let os_b =
        let os = Os.write_bytes os (Word.of_int 0x0400_0000) (String.make 256 '\xEE') in
        let mon = inject_secret os.Os.mon adv_data (page_of_byte 'Z') in
        let mach = State.write_reg mon.Monitor.mach (Regs.R 7) (Word.of_int 0x7777) in
        let mach = State.write_reg mach (Regs.R 9) (Word.of_int 0x9999) in
        { os with Os.mon = { mon with Monitor.mach = mach } }
      in
      { os_a; os_b; victim; adv }

(* -- Adversarial operations --------------------------------------------- *)

type op =
  | Op_smc of { call : int; args : Word.t list }
  | Op_write_insecure of { addr : Word.t; value : Word.t }

let pp_op fmt = function
  | Op_smc { call; args } ->
      Format.fprintf fmt "SMC(%d, [%s])" call
        (String.concat "; " (List.map Word.show args))
  | Op_write_insecure { addr; value } ->
      Format.fprintf fmt "insecure[%a] := %a" Word.pp addr Word.pp value

(** A deterministic adversarial op stream. Page arguments are drawn
    from a small domain so collisions with live pages are common; the
    victim's and adversary's thread pages are targeted explicitly so
    Enter/Resume paths fire often. *)
let gen_ops ~seed ~world ~n =
  let next = Komodo_rand.Lcg.(below (make (seed * 2654435761 land 0x3FFFFFFF))) in
  let page () = Word.of_int (next 48) in
  let some_thread () =
    match next 3 with
    | 0 -> Word.of_int (List.hd world.victim.Loader.threads)
    | 1 -> Word.of_int (List.hd world.adv.Loader.threads)
    | _ -> page ()
  in
  let mapping () =
    Word.of_int ((next 0x40000 * 0x1000) lor 1 lor (next 2 * 2) lor (next 2 * 4))
  in
  let op _ =
    match next 16 with
    | 0 -> Op_smc { call = Abi.smc_get_phys_pages; args = [] }
    | 1 -> Op_smc { call = Abi.smc_init_addrspace; args = [ page (); page () ] }
    | 2 ->
        Op_smc
          { call = Abi.smc_init_thread; args = [ page (); page (); Word.of_int (next 0x10000) ] }
    | 3 ->
        Op_smc
          { call = Abi.smc_init_l2ptable; args = [ page (); page (); Word.of_int (next 300) ] }
    | 4 -> Op_smc { call = Abi.smc_alloc_spare; args = [ page (); page () ] }
    | 5 ->
        Op_smc
          {
            call = Abi.smc_map_secure;
            args =
              [
                page ();
                page ();
                mapping ();
                (if next 2 = 0 then Word.zero else Os.staging_base);
              ];
          }
    | 6 ->
        Op_smc
          {
            call = Abi.smc_map_insecure;
            args = [ page (); mapping (); Word.add Os.shared_base (Word.of_int 0x2000) ];
          }
    | 7 -> Op_smc { call = Abi.smc_finalise; args = [ page () ] }
    | 8 | 9 | 10 ->
        Op_smc
          {
            call = Abi.smc_enter;
            args =
              [
                some_thread ();
                Word.of_int (next 100);
                Word.of_int (next 100);
                Word.of_int (next 100);
              ];
          }
    | 11 -> Op_smc { call = Abi.smc_resume; args = [ some_thread () ] }
    | 12 -> Op_smc { call = Abi.smc_stop; args = [ page () ] }
    | 13 -> Op_smc { call = Abi.smc_remove; args = [ page () ] }
    | 14 ->
        Op_write_insecure
          {
            addr = Word.add Os.shared_base (Word.of_int (next 1024 * 4));
            value = Word.of_int (next 0xFFFF);
          }
    | _ ->
        Op_smc
          {
            call = Abi.smc_enter;
            args = [ some_thread (); Word.zero; Word.zero; Word.zero ];
          }
  in
  List.init n op

let apply_op (os : Os.t) = function
  | Op_smc { call; args } ->
      let os, err, v = Os.smc os ~call ~args in
      (os, Some (err, v))
  | Op_write_insecure { addr; value } -> (Os.write_word os addr value, None)

(* -- Bisimulation driver ------------------------------------------------ *)

type failure = {
  step : int;
  op : op;
  reason : string;
}

let pp_failure fmt f =
  Format.fprintf fmt "step %d: %a — %s" f.step pp_op f.op f.reason

type check = world -> int -> op -> (Errors.t * Word.t) option -> (Errors.t * Word.t) option -> string option

(** Run [ops] through both worlds, applying [check] after each step. *)
let run_pair (w : world) ~ops ~(check : check) : failure option =
  let rec go w i = function
    | [] -> None
    | op :: rest -> (
        let os_a, ra = apply_op w.os_a op in
        let os_b, rb = apply_op w.os_b op in
        let w = { w with os_a; os_b } in
        match check w i op ra rb with
        | Some reason -> Some { step = i; op; reason }
        | None -> go w (i + 1) rest)
  in
  go w 0 ops

(** Confidentiality: ≈adv (with the colluding enclave as observer) must
    be preserved, and the OS-visible results must be equal. *)
let confidentiality_check : check =
 fun w _i _op ra rb ->
  if ra <> rb then
    Some
      (Format.asprintf "released results differ: %s vs %s"
         (match ra with
         | None -> "-"
         | Some (e, v) -> Format.asprintf "%a/%a" Errors.pp e Word.pp v)
         (match rb with
         | None -> "-"
         | Some (e, v) -> Format.asprintf "%a/%a" Errors.pp e Word.pp v))
  else
    Option.map
      (fun clause -> "adv_equiv broken at clause: " ^ clause)
      (Obs.adv_equiv_explain ~enc:w.adv.Loader.addrspace w.os_a.Os.mon w.os_b.Os.mon)

(** Integrity: the victim's PageDB entries and page contents must be
    bit-identical across runs, and ≈enc (victim) preserved. *)
let integrity_check : check =
 fun w _i _op _ra _rb ->
  let victim = w.victim.Loader.addrspace in
  let a = w.os_a.Os.mon and b = w.os_b.Os.mon in
  let owned = Obs.owned_set a.Monitor.pagedb victim in
  let bad_page =
    List.find_opt
      (fun n ->
        (not
           (Pagedb.equal_entry (Pagedb.get a.Monitor.pagedb n) (Pagedb.get b.Monitor.pagedb n)))
        || not (Obs.page_contents_equal a b n))
      owned
  in
  match bad_page with
  | Some n -> Some (Printf.sprintf "victim page %d diverged" n)
  | None ->
      if Obs.enc_equiv ~enc:victim a b then None
      else Some "enc_equiv (victim) broken"

let run_confidentiality ~seed ~nops =
  let w = make_world ~seed ~perturb:`Victim_secret in
  let ops = gen_ops ~seed ~world:w ~n:nops in
  run_pair w ~ops ~check:confidentiality_check

let run_integrity ~seed ~nops =
  let w = make_world ~seed ~perturb:`Adversary_state in
  let ops = gen_ops ~seed ~world:w ~n:nops in
  run_pair w ~ops ~check:integrity_check
