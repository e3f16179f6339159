(* Per-session attestation flow (the serving subsystem's unit of work).

   A session is one client asking the platform to vouch for a nonce:

     1. the OS stages the 32-byte session nonce in the slot's insecure
        shared window;
     2. the notary enclave is entered, loads the nonce, and asks the
        monitor to MAC it together with the enclave's measurement
        (the Attest SVC — [Attest.create] under the boot secret);
     3. the client recomputes the MAC it expects for the nonce and the
        expected measurement ([Attest.create] under the boot secret,
        once) and compares both the published MAC and a tampered copy
        (one bit flipped) against it with the constant-shape
        [Hmac.equal_tags]: the genuine MAC must match, the tampered one
        must not;
     4. optionally, the check runs *in-enclave* instead: the OS ferries
        (nonce, measurement, MAC) to a verifier enclave whose Verify
        SVC returns the verdict — the two-enclave local-attestation
        flow of §4.

   All latencies are model cycles read off the monitor's deterministic
   cycle accounting, so per-session latency is a pure function of the
   work done, not of the host machine. *)

module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Ptable = Komodo_machine.Ptable
module Os = Komodo_os.Os
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Mapping = Komodo_core.Mapping
module Attest = Komodo_core.Attest
module Hmac = Komodo_crypto.Hmac
module Uprog = Komodo_user.Uprog
module Abi = Komodo_core.Abi
open Uprog

(** Both programs map their shared window at this VA (page 2 of the
    same first-level slot as the code, so one L2 table suffices). *)
let shared_va = Word.of_int 0x2000

let nonce_bytes = 32
let mac_off = nonce_bytes (* MAC published right after the nonce *)

(* The notary program: load the 8 nonce words from the shared window,
   MAC them via the Attest SVC, publish the 8 MAC words after the
   nonce, exit 0. *)
let notary_prog : Insn.stmt list =
  [ Insn.I (Insn.Mov (r12, imm 0x2000)) ]
  @ List.init 8 (fun i ->
        Insn.I (Insn.Ldr (Komodo_machine.Regs.R (i + 1), r12, imm (4 * i))))
  @ [
      Insn.I (Insn.Mov (r0, imm Abi.svc_attest));
      Insn.I (Insn.Svc Word.zero);
    ]
  @ List.init 8 (fun i ->
        Insn.I (Insn.Str (Komodo_machine.Regs.R (i + 1), r12, imm (mac_off + (4 * i)))))
  @ [ Insn.I (Insn.Mov (r4, imm 0)) ]
  @ exit_with r4

(* The verifier program: run the Verify SVC over the 96-byte buffer
   (nonce || measurement || MAC) in its shared inbox, exit with the
   verdict word. *)
let verifier_prog : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r1, imm 0x2000));
    Insn.I (Insn.Mov (r0, imm Abi.svc_verify));
    Insn.I (Insn.Svc Word.zero);
  ]
  @ exit_with r1

let image ~name ~prog ~shared_target =
  let code = Uprog.to_page_images (Uprog.code_words prog) in
  let img = Image.empty ~name in
  let img = Image.add_blob img ~va:Word.zero ~w:false ~x:true code in
  let img =
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:shared_va ~w:true ~x:false)
      ~target:shared_target
  in
  Image.add_thread img ~entry:Word.zero

let notary_image ~shared_target = image ~name:"serve-notary" ~prog:notary_prog ~shared_target
let verifier_image ~shared_target = image ~name:"serve-verifier" ~prog:verifier_prog ~shared_target

let pages_per_enclave =
  Image.pages_needed (notary_image ~shared_target:Os.shared_base)

(* -- Session execution --------------------------------------------------- *)

type verdict = {
  v_err : Errors.t;  (** the Enter's SMC error *)
  v_enter_cycles : int;  (** model cycles of the notary Enter crossing *)
  v_verify_cycles : int;  (** model cycles attributed to verification *)
  v_mac_ok : bool;  (** genuine MAC accepted *)
  v_tamper_rejected : bool;  (** bit-flipped MAC rejected *)
}

let flip_bit s =
  String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s

(** Run one attestation session on a notary slot: stage [nonce], enter
    the notary thread, read the published MAC, verify it host-side
    against [measurement] (and reject a tampered copy). Both checks
    compare against one recomputed MAC, but each is charged the
    deterministic [Attest.verify_cycles] constant — the client-side cost
    model. *)
let attest ~os ~thread ~shared ~measurement ~nonce =
  if String.length nonce <> nonce_bytes then invalid_arg "Session.attest: nonce size";
  let os = Os.write_bytes os shared nonce in
  let c0 = Os.cycles os in
  let os, err, _ = Os.enter os ~thread ~args:(Word.zero, Word.zero, Word.zero) in
  let enter_cycles = Os.cycles os - c0 in
  if not (Errors.is_success err) then
    ( os,
      {
        v_err = err;
        v_enter_cycles = enter_cycles;
        v_verify_cycles = 0;
        v_mac_ok = false;
        v_tamper_rejected = false;
      } )
  else
    let mac = Os.read_bytes os (Word.add shared (Word.of_int mac_off)) 32 in
    let key = os.Os.mon.Monitor.attest_key in
    let expected = Attest.create ~key ~measurement ~data:nonce in
    let ok = Hmac.equal_tags expected mac in
    let tampered = Hmac.equal_tags expected (flip_bit mac) in
    ( os,
      {
        v_err = err;
        v_enter_cycles = enter_cycles;
        v_verify_cycles = 2 * Attest.verify_cycles;
        v_mac_ok = ok;
        v_tamper_rejected = not tampered;
      } )

(** Re-check a MAC through the verifier enclave (the in-enclave Verify
    SVC path): the OS writes (nonce || measurement || MAC) to the
    verifier's inbox and enters it. Returns the updated OS, the Enter's
    model cycles, and whether the verifier accepted. *)
let enclave_verify ~os ~thread ~shared ~measurement ~nonce ~mac =
  let os = Os.write_bytes os shared (nonce ^ measurement ^ mac) in
  let c0 = Os.cycles os in
  let os, err, verdict =
    Os.enter os ~thread ~args:(Word.zero, Word.zero, Word.zero)
  in
  let cycles = Os.cycles os - c0 in
  (os, cycles, Errors.is_success err && Word.to_int verdict = 1)

(** The MAC a notary slot published for its latest session (for
    ferrying to the verifier enclave). *)
let published_mac os ~shared = Os.read_bytes os (Word.add shared (Word.of_int mac_off)) 32
