(** Building enclave code pages.

    Enclave code is ordinary measured page content: a header word
    identifying the format, then either the encoded bytecode program or
    a native-service id (see {!Komodo_machine.Exec}). This module
    assembles structured programs into page images and provides the
    register short-hands used when writing them. *)

module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Exec = Komodo_machine.Exec
module Regs = Komodo_machine.Regs
module Ptable = Komodo_machine.Ptable
module Abi = Komodo_core.Abi

(* Register short-hands for program texts. *)
let r0 = Regs.R 0
let r1 = Regs.R 1
let r2 = Regs.R 2
let r3 = Regs.R 3
let r4 = Regs.R 4
let r5 = Regs.R 5
let r6 = Regs.R 6
let r7 = Regs.R 7
let r8 = Regs.R 8
let r9 = Regs.R 9
let r10 = Regs.R 10
let r11 = Regs.R 11
let r12 = Regs.R 12
let sp = Regs.SP
let lr = Regs.LR

let imm n = Insn.Imm (Word.of_int n)
let reg r = Insn.Reg r

(** Exit the enclave with the value in register [r]. *)
let exit_with r =
  [
    Insn.I (Insn.Mov (r1, reg r));
    Insn.I (Insn.Mov (r0, imm Abi.svc_exit));
    Insn.I (Insn.Svc Word.zero);
  ]

(** Assemble a structured program into the words of a code page image
    (header + encoded body). @raise Invalid_argument if the program
    exceeds the given page budget. *)
let code_words ?(max_pages = 4) (prog : Insn.stmt list) : Word.t list =
  let body = Insn.encode_program prog in
  let n = List.length body in
  if 2 + n > max_pages * Ptable.words_per_page then
    invalid_arg "Uprog.code_words: program too large";
  Exec.code_magic :: Word.of_int n :: body

(** Words of a native-service code page. *)
let native_words ~id : Word.t list = [ Exec.native_magic; Word.of_int id ]

(** Pad a word list to whole pages (4096-byte multiples) of zeroes and
    split it into page-sized byte strings, ready for staging/mapping. *)
let to_page_images (ws : Word.t list) : string list =
  let page_words = Ptable.words_per_page in
  let n = List.length ws in
  let npages = max 1 ((n + page_words - 1) / page_words) in
  let padded = ws @ List.init ((npages * page_words) - n) (fun _ -> Word.zero) in
  let buf = Buffer.create (4 * npages * page_words) in
  List.iter (fun w -> Buffer.add_string buf (Word.to_bytes_be w)) padded;
  let s = Buffer.contents buf in
  List.init npages (fun i -> String.sub s (i * Ptable.page_size) Ptable.page_size)
