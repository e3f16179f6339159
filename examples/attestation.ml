(* Local attestation between two enclaves (paper §4 "Attestation").

   Enclave A MACs 32 bytes of data under the monitor's boot-time secret
   together with A's measurement (the Attest SVC). The OS — untrusted —
   ferries (data, measurement, MAC) to enclave B, which checks it with
   the Verify SVC. B thereby knows the data came from an enclave
   measuring as A on this machine, no matter what the OS did in
   between; we also show a forged MAC and a wrong measurement fail.

   Run with: dune exec examples/attestation.exe *)

module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Mapping = Komodo_core.Mapping
module Sha256 = Komodo_crypto.Sha256
module Uprog = Komodo_user.Uprog
module Abi = Komodo_core.Abi
open Uprog

let shared_a = Os.shared_base (* A publishes its MAC here *)
let shared_b = Word.add Os.shared_base (Word.of_int 0x1000) (* B's inbox *)

(* Enclave A: attest to the data words 1..8 and publish the MAC to the
   shared page mapped at VA 0x2000. *)
let prog_attester : Insn.stmt list =
  List.init 8 (fun i -> Insn.I (Insn.Mov (Komodo_machine.Regs.R (i + 1), imm (i + 1))))
  @ [
      Insn.I (Insn.Mov (r0, imm Abi.svc_attest));
      Insn.I (Insn.Svc Word.zero);
      Insn.I (Insn.Mov (r12, imm 0x2000));
    ]
  @ List.concat_map
      (fun i ->
        [ Insn.I (Insn.Str (Komodo_machine.Regs.R (i + 1), r12, imm (4 * i))) ])
      (List.init 8 (fun i -> i))
  @ [ Insn.I (Insn.Mov (r4, imm 0)) ]
  @ exit_with r4

(* Enclave B: run Verify over the 96-byte buffer at VA 0x2000 (its
   shared inbox) and exit with the verdict. *)
let prog_verifier : Insn.stmt list =
  [
    Insn.I (Insn.Mov (r1, imm 0x2000));
    Insn.I (Insn.Mov (r0, imm Abi.svc_verify));
    Insn.I (Insn.Svc Word.zero);
  ]
  @ exit_with r1

let build ~name ~prog ~shared_target =
  let code = Uprog.to_page_images (Uprog.code_words prog) in
  Image.empty ~name
  |> fun img ->
  Image.add_blob img ~va:Word.zero ~w:false ~x:true code |> fun img ->
  Image.add_insecure_mapping img
    ~mapping:(Mapping.make ~va:(Word.of_int 0x2000) ~w:true ~x:false)
    ~target:shared_target
  |> fun img -> Image.add_thread img ~entry:Word.zero

let load os img =
  match Loader.load os img with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "load: %a" Loader.pp_error e)

let () =
  let os = Os.boot ~seed:77 ~npages:64 () in
  let os, encl_a = load os (build ~name:"attester" ~prog:prog_attester ~shared_target:shared_a) in
  let os, encl_b = load os (build ~name:"verifier" ~prog:prog_verifier ~shared_target:shared_b) in

  (* A attests and publishes its MAC. *)
  let os, err, _ =
    Os.enter os ~thread:(List.hd encl_a.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero)
  in
  assert (Errors.is_success err);
  let mac = Os.read_bytes os shared_a 32 in
  Printf.printf "A's attestation MAC: %s...\n" (String.sub (Sha256.to_hex mac) 0 16);

  (* The OS assembles B's inbox: data || A's measurement || MAC. *)
  let data = String.concat "" (List.map (fun i -> Word.to_bytes_be (Word.of_int (i + 1))) (List.init 8 (fun i -> i))) in
  let verify_with os ~measurement ~mac =
    let os = Os.write_bytes os shared_b (data ^ measurement ^ mac) in
    let os, err, verdict =
      Os.enter os ~thread:(List.hd encl_b.Loader.threads)
        ~args:(Word.zero, Word.zero, Word.zero)
    in
    assert (Errors.is_success err);
    (os, Word.to_int verdict = 1)
  in

  let os, genuine = verify_with os ~measurement:encl_a.Loader.measurement ~mac in
  Printf.printf "B verifies A's attestation: %b\n" genuine;
  assert genuine;

  (* Forged MAC: flip one byte. *)
  let forged = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) mac in
  let os, ok = verify_with os ~measurement:encl_a.Loader.measurement ~mac:forged in
  Printf.printf "B accepts a forged MAC: %b\n" ok;
  assert (not ok);

  (* Wrong measurement: claim the data came from B itself. *)
  let _os, ok = verify_with os ~measurement:encl_b.Loader.measurement ~mac in
  Printf.printf "B accepts a wrong measurement: %b\n" ok;
  assert (not ok);
  print_endline "attestation demo: OK"
