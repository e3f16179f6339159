module Insn = Komodo_machine.Insn
module Regs = Komodo_machine.Regs
module Word = Komodo_machine.Word
module Abi = Komodo_core.Abi

type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

exception Parse_error of error

let fail line message = raise (Parse_error { line; message })

(* -- Lexical helpers ----------------------------------------------------- *)

let strip_comment line =
  match String.index_opt line ';' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokenize line =
  (* Split on whitespace and commas; brackets become their own tokens. *)
  let buf = Buffer.create 8 and toks = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | ',' -> flush ()
      | '[' | ']' ->
          flush ();
          toks := String.make 1 c :: !toks
      | c -> Buffer.add_char buf (Char.lowercase_ascii c))
    line;
  flush ();
  List.rev !toks

let parse_reg ln = function
  | "sp" -> Regs.SP
  | "lr" -> Regs.LR
  | tok ->
      if String.length tok >= 2 && tok.[0] = 'r' then begin
        match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
        | Some n when n >= 0 && n <= 12 -> Regs.R n
        | Some _ | None -> fail ln (Printf.sprintf "bad register %S" tok)
      end
      else fail ln (Printf.sprintf "expected register, got %S" tok)

let parse_imm ?(syms = []) ln tok =
  if String.length tok < 2 || tok.[0] <> '#' then
    fail ln (Printf.sprintf "expected immediate, got %S" tok)
  else
    let body = String.sub tok 1 (String.length tok - 1) in
    match int_of_string_opt body with
    | Some n -> Word.of_int n
    | None -> (
        match List.assoc_opt body syms with
        | Some w -> w
        | None -> fail ln (Printf.sprintf "bad immediate or unknown symbol %S" tok))

let parse_operand ?syms ln tok =
  if String.length tok > 0 && tok.[0] = '#' then Insn.Imm (parse_imm ?syms ln tok)
  else Insn.Reg (parse_reg ln tok)

let parse_cond ln = function
  | "eq" -> Insn.EQ
  | "ne" -> Insn.NE
  | "cs" | "hs" -> Insn.CS
  | "cc" | "lo" -> Insn.CC
  | "mi" -> Insn.MI
  | "pl" -> Insn.PL
  | "hi" -> Insn.HI
  | "ls" -> Insn.LS
  | "ge" -> Insn.GE
  | "lt" -> Insn.LT
  | "gt" -> Insn.GT
  | "le" -> Insn.LE
  | "al" -> Insn.AL
  | tok -> fail ln (Printf.sprintf "bad condition %S" tok)

(** Memory operand: "[" rn "]" or "[" rn (#ofs | rm) "]". *)
let parse_mem ?syms ln = function
  | [ "["; rn; "]" ] -> (parse_reg ln rn, Insn.Imm Word.zero)
  | [ "["; rn; op; "]" ] -> (parse_reg ln rn, parse_operand ?syms ln op)
  | _ -> fail ln "expected memory operand [rn], [rn, #ofs] or [rn, rm]"

(* -- Instruction parsing -------------------------------------------------- *)

let parse_insn ?syms ln mnemonic operands =
  let two mk =
    match operands with
    | [ rd; op ] -> mk (parse_reg ln rd) (parse_operand ?syms ln op)
    | _ -> fail ln (mnemonic ^ " takes: rd, operand")
  in
  let three mk =
    match operands with
    | [ rd; rn; op ] -> mk (parse_reg ln rd) (parse_reg ln rn) (parse_operand ?syms ln op)
    | _ -> fail ln (mnemonic ^ " takes: rd, rn, operand")
  in
  let mem mk =
    match operands with
    | rd :: rest ->
        let rn, ofs = parse_mem ?syms ln rest in
        mk (parse_reg ln rd) rn ofs
    | [] -> fail ln (mnemonic ^ " takes: rd, [rn, ofs]")
  in
  match mnemonic with
  | "mov" -> two (fun rd op -> Insn.Mov (rd, op))
  | "mvn" -> two (fun rd op -> Insn.Mvn (rd, op))
  | "add" -> three (fun rd rn op -> Insn.Add (rd, rn, op))
  | "sub" -> three (fun rd rn op -> Insn.Sub (rd, rn, op))
  | "rsb" -> three (fun rd rn op -> Insn.Rsb (rd, rn, op))
  | "mul" -> (
      match operands with
      | [ rd; rn; rm ] -> Insn.Mul (parse_reg ln rd, parse_reg ln rn, parse_reg ln rm)
      | _ -> fail ln "mul takes: rd, rn, rm")
  | "and" -> three (fun rd rn op -> Insn.And_ (rd, rn, op))
  | "orr" -> three (fun rd rn op -> Insn.Orr (rd, rn, op))
  | "eor" -> three (fun rd rn op -> Insn.Eor (rd, rn, op))
  | "bic" -> three (fun rd rn op -> Insn.Bic (rd, rn, op))
  | "lsl" -> three (fun rd rn op -> Insn.Lsl (rd, rn, op))
  | "lsr" -> three (fun rd rn op -> Insn.Lsr (rd, rn, op))
  | "asr" -> three (fun rd rn op -> Insn.Asr (rd, rn, op))
  | "ror" -> three (fun rd rn op -> Insn.Ror (rd, rn, op))
  | "cmp" -> two (fun rn op -> Insn.Cmp (rn, op))
  | "cmn" -> two (fun rn op -> Insn.Cmn (rn, op))
  | "tst" -> two (fun rn op -> Insn.Tst (rn, op))
  | "ldr" -> mem (fun rd rn op -> Insn.Ldr (rd, rn, op))
  | "str" -> mem (fun rd rn op -> Insn.Str (rd, rn, op))
  | "svc" -> (
      match operands with
      | [] -> Insn.Svc Word.zero
      | [ imm ] -> Insn.Svc (parse_imm ?syms ln imm)
      | _ -> fail ln "svc takes at most one immediate")
  | "udf" -> Insn.Udf
  | "nop" -> Insn.Nop
  | m -> fail ln (Printf.sprintf "unknown mnemonic %S" m)

(* -- Block structure ------------------------------------------------------ *)

type frame =
  | Top of Insn.stmt list
  | In_if of int * Insn.cond * Insn.stmt list  (** collecting then-block *)
  | In_else of int * Insn.cond * Insn.stmt list * Insn.stmt list
  | In_while of int * Insn.cond * Insn.stmt list

(** Symbols predefined for every program: the SVC call numbers. *)
let builtin_syms =
  [
    ("svc_exit", Word.of_int Abi.svc_exit);
    ("svc_get_random", Word.of_int Abi.svc_get_random);
    ("svc_attest", Word.of_int Abi.svc_attest);
    ("svc_verify", Word.of_int Abi.svc_verify);
    ("svc_init_l2ptable", Word.of_int Abi.svc_init_l2ptable);
    ("svc_map_data", Word.of_int Abi.svc_map_data);
    ("svc_unmap_data", Word.of_int Abi.svc_unmap_data);
    ("svc_set_dispatcher", Word.of_int Abi.svc_set_dispatcher);
    ("svc_resume_faulted", Word.of_int Abi.svc_resume_faulted);
  ]

let parse text =
  let lines = String.split_on_char '\n' text in
  let syms = ref builtin_syms in
  let push stmt = function
    | Top acc -> Top (stmt :: acc)
    | In_if (l, c, acc) -> In_if (l, c, stmt :: acc)
    | In_else (l, c, t, acc) -> In_else (l, c, t, stmt :: acc)
    | In_while (l, c, acc) -> In_while (l, c, stmt :: acc)
  in
  try
    let stack =
      List.fold_left
        (fun (ln, stack) raw ->
          let ln = ln + 1 in
          match tokenize (strip_comment raw) with
          | [] -> (ln, stack)
          | [ ".equ"; name; value ] ->
              let w =
                match int_of_string_opt value with
                | Some n -> Word.of_int n
                | None -> fail ln (Printf.sprintf ".equ %s: bad value %S" name value)
              in
              syms := (name, w) :: !syms;
              (ln, stack)
          | ".if" :: rest -> (
              match rest with
              | [ c ] -> (ln, In_if (ln, parse_cond ln c, []) :: stack)
              | _ -> fail ln ".if takes one condition")
          | [ ".else" ] -> (
              match stack with
              | In_if (l, c, then_acc) :: below ->
                  (ln, In_else (l, c, List.rev then_acc, []) :: below)
              | _ -> fail ln ".else without .if")
          | [ ".endif" ] -> (
              let close stmt below =
                match below with
                | top :: rest -> (ln, push stmt top :: rest)
                | [] -> fail ln "internal: empty stack"
              in
              match stack with
              | In_if (_, c, then_acc) :: below ->
                  close (Insn.If (c, List.rev then_acc, [])) below
              | In_else (_, c, then_b, else_acc) :: below ->
                  close (Insn.If (c, then_b, List.rev else_acc)) below
              | _ -> fail ln ".endif without .if")
          | ".while" :: rest -> (
              match rest with
              | [ c ] -> (ln, In_while (ln, parse_cond ln c, []) :: stack)
              | _ -> fail ln ".while takes one condition")
          | [ ".endwhile" ] -> (
              match stack with
              | In_while (_, c, body) :: below -> (
                  let stmt = Insn.While (c, List.rev body) in
                  match below with
                  | top :: rest -> (ln, push stmt top :: rest)
                  | [] -> fail ln "internal: empty stack")
              | _ -> fail ln ".endwhile without .while")
          | tok :: _ when String.length tok > 0 && tok.[0] = '.' ->
              fail ln (Printf.sprintf "unknown directive %S" tok)
          | mnemonic :: operands ->
              let stmt = Insn.I (parse_insn ~syms:!syms ln mnemonic operands) in
              (match stack with
              | top :: rest -> (ln, push stmt top :: rest)
              | [] -> fail ln "internal: empty stack"))
        (0, [ Top [] ])
        lines
      |> snd
    in
    match stack with
    | [ Top acc ] -> Ok (List.rev acc)
    | In_if (l, _, _) :: _ | In_else (l, _, _, _) :: _ ->
        Error { line = l; message = "unterminated .if" }
    | In_while (l, _, _) :: _ -> Error { line = l; message = "unterminated .while" }
    | _ -> Error { line = 0; message = "internal: bad parser stack" }
  with Parse_error e -> Error e

(* -- Printing -------------------------------------------------------------- *)

let reg_name = function Regs.R n -> Printf.sprintf "r%d" n | Regs.SP -> "sp" | Regs.LR -> "lr"

let operand_text = function
  | Insn.Reg r -> reg_name r
  | Insn.Imm w ->
      let n = Word.to_int w in
      if n > 255 then Printf.sprintf "#0x%x" n else Printf.sprintf "#%d" n

let cond_name = function
  | Insn.EQ -> "eq"
  | Insn.NE -> "ne"
  | Insn.CS -> "cs"
  | Insn.CC -> "cc"
  | Insn.MI -> "mi"
  | Insn.PL -> "pl"
  | Insn.HI -> "hi"
  | Insn.LS -> "ls"
  | Insn.GE -> "ge"
  | Insn.LT -> "lt"
  | Insn.GT -> "gt"
  | Insn.LE -> "le"
  | Insn.AL -> "al"

let insn_text i =
  let two m rd op = Printf.sprintf "%-5s %s, %s" m (reg_name rd) (operand_text op) in
  let three m rd rn op =
    Printf.sprintf "%-5s %s, %s, %s" m (reg_name rd) (reg_name rn) (operand_text op)
  in
  let mem m rd rn op =
    match op with
    | Insn.Imm w when Word.equal w Word.zero ->
        Printf.sprintf "%-5s %s, [%s]" m (reg_name rd) (reg_name rn)
    | _ -> Printf.sprintf "%-5s %s, [%s, %s]" m (reg_name rd) (reg_name rn) (operand_text op)
  in
  match i with
  | Insn.Mov (rd, op) -> two "mov" rd op
  | Insn.Mvn (rd, op) -> two "mvn" rd op
  | Insn.Add (rd, rn, op) -> three "add" rd rn op
  | Insn.Sub (rd, rn, op) -> three "sub" rd rn op
  | Insn.Rsb (rd, rn, op) -> three "rsb" rd rn op
  | Insn.Mul (rd, rn, rm) ->
      Printf.sprintf "%-5s %s, %s, %s" "mul" (reg_name rd) (reg_name rn) (reg_name rm)
  | Insn.And_ (rd, rn, op) -> three "and" rd rn op
  | Insn.Orr (rd, rn, op) -> three "orr" rd rn op
  | Insn.Eor (rd, rn, op) -> three "eor" rd rn op
  | Insn.Bic (rd, rn, op) -> three "bic" rd rn op
  | Insn.Lsl (rd, rn, op) -> three "lsl" rd rn op
  | Insn.Lsr (rd, rn, op) -> three "lsr" rd rn op
  | Insn.Asr (rd, rn, op) -> three "asr" rd rn op
  | Insn.Ror (rd, rn, op) -> three "ror" rd rn op
  | Insn.Cmp (rn, op) -> two "cmp" rn op
  | Insn.Cmn (rn, op) -> two "cmn" rn op
  | Insn.Tst (rn, op) -> two "tst" rn op
  | Insn.Ldr (rd, rn, op) -> mem "ldr" rd rn op
  | Insn.Str (rd, rn, op) -> mem "str" rd rn op
  | Insn.Svc w ->
      if Word.equal w Word.zero then "svc" else Printf.sprintf "svc   #%d" (Word.to_int w)
  | Insn.Udf -> "udf"
  | Insn.Nop -> "nop"

let print stmts =
  let buf = Buffer.create 256 in
  let rec go indent stmts =
    let pad = String.make (indent * 4) ' ' in
    List.iter
      (fun stmt ->
        match stmt with
        | Insn.I i -> Buffer.add_string buf (pad ^ insn_text i ^ "\n")
        | Insn.If (c, then_b, else_b) ->
            Buffer.add_string buf (Printf.sprintf "%s.if %s\n" pad (cond_name c));
            go (indent + 1) then_b;
            if else_b <> [] then begin
              Buffer.add_string buf (pad ^ ".else\n");
              go (indent + 1) else_b
            end;
            Buffer.add_string buf (pad ^ ".endif\n")
        | Insn.While (c, body) ->
            Buffer.add_string buf (Printf.sprintf "%s.while %s\n" pad (cond_name c));
            go (indent + 1) body;
            Buffer.add_string buf (pad ^ ".endwhile\n"))
      stmts
  in
  go 1 stmts;
  Buffer.contents buf
