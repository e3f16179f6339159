(** Building enclave code pages.

    Enclave code is ordinary measured page content: a header word
    identifying the format, then either encoded bytecode or a native-
    service id (see {!Komodo_machine.Exec}). This module assembles
    structured programs into page images, and provides the register
    short-hands program texts use. *)

module Word = Komodo_machine.Word
module Insn = Komodo_machine.Insn
module Regs = Komodo_machine.Regs

(** Register short-hands. *)

val r0 : Regs.reg
val r1 : Regs.reg
val r2 : Regs.reg
val r3 : Regs.reg
val r4 : Regs.reg
val r5 : Regs.reg
val r6 : Regs.reg
val r7 : Regs.reg
val r8 : Regs.reg
val r9 : Regs.reg
val r10 : Regs.reg
val r11 : Regs.reg
val r12 : Regs.reg
val sp : Regs.reg
val lr : Regs.reg

val imm : int -> Insn.operand
val reg : Regs.reg -> Insn.operand

val exit_with : Regs.reg -> Insn.stmt list
(** Exit the enclave with the value in the given register. *)

val code_words : ?max_pages:int -> Insn.stmt list -> Word.t list
(** Assemble a structured program into code-page words (header +
    encoded body).
    @raise Invalid_argument if it exceeds the page budget. *)

val native_words : id:int -> Word.t list
(** Words of a native-service code page. *)

val to_page_images : Word.t list -> string list
(** Pad to whole pages and split into page-sized byte strings ready for
    staging and mapping. *)
