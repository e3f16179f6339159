(* The kasm assembler: parsing, printing, roundtrips, error reporting,
   and assembling straight into a running enclave. *)

open Testlib
module Insn = Komodo_machine.Insn
module Word = Komodo_machine.Word
module Regs = Komodo_machine.Regs
module Kasm = Komodo_user.Kasm
module Errors = Komodo_core.Errors
module Abi = Komodo_core.Abi

let parse_ok src =
  match Kasm.parse src with
  | Ok prog -> prog
  | Error e -> Alcotest.failf "parse failed: %a" Kasm.pp_error e

let parse_err src =
  match Kasm.parse src with
  | Ok _ -> Alcotest.fail "parse unexpectedly succeeded"
  | Error e -> e

let test_basic_instructions () =
  let prog = parse_ok {|
    mov r0, #5
    add r1, r0, r2
    mvn r3, #0
    mul r4, r1, r2
    cmp r0, #0x10
    svc
  |} in
  Alcotest.(check int) "six instructions" 6 (List.length prog);
  match prog with
  | Insn.I (Insn.Mov (Regs.R 0, Insn.Imm w)) :: _ ->
      Alcotest.(check int) "immediate" 5 (Word.to_int w)
  | _ -> Alcotest.fail "first instruction mis-parsed"

let test_memory_operands () =
  let prog = parse_ok {|
    ldr r1, [r2]
    ldr r3, [r4, #8]
    str r5, [r6, r7]
  |} in
  match prog with
  | [
   Insn.I (Insn.Ldr (Regs.R 1, Regs.R 2, Insn.Imm z));
   Insn.I (Insn.Ldr (Regs.R 3, Regs.R 4, Insn.Imm eight));
   Insn.I (Insn.Str (Regs.R 5, Regs.R 6, Insn.Reg (Regs.R 7)));
  ] ->
      Alcotest.(check int) "bare deref is offset 0" 0 (Word.to_int z);
      Alcotest.(check int) "offset" 8 (Word.to_int eight)
  | _ -> Alcotest.fail "memory operands mis-parsed"

let test_control_flow () =
  let prog = parse_ok {|
    cmp r0, #10
    .if lt
      mov r1, #1
    .else
      mov r1, #2
    .endif
    .while ne
      sub r0, r0, #1
      cmp r0, #0
    .endwhile
  |} in
  match prog with
  | [ Insn.I (Insn.Cmp _); Insn.If (Insn.LT, [ _ ], [ _ ]); Insn.While (Insn.NE, [ _; _ ]) ]
    -> ()
  | _ -> Alcotest.fail "control flow mis-parsed"

let test_nesting () =
  let prog = parse_ok {|
    .while al
      cmp r0, #5
      .if eq
        svc
      .endif
    .endwhile
  |} in
  match prog with
  | [ Insn.While (Insn.AL, [ _; Insn.If (Insn.EQ, [ _ ], []) ]) ] -> ()
  | _ -> Alcotest.fail "nesting mis-parsed"

let test_comments_and_blanks () =
  let prog = parse_ok {|
    ; a full-line comment

    nop ; trailing comment
  |} in
  Alcotest.(check int) "one instruction" 1 (List.length prog)

let test_registers () =
  let prog = parse_ok "mov sp, lr" in
  match prog with
  | [ Insn.I (Insn.Mov (Regs.SP, Insn.Reg Regs.LR)) ] -> ()
  | _ -> Alcotest.fail "sp/lr mis-parsed"

let test_errors_carry_lines () =
  let e = parse_err "nop\nbogus r0\nnop" in
  Alcotest.(check int) "line number" 2 e.Kasm.line;
  let e = parse_err "mov r13, #0" in
  Alcotest.(check bool) "register range" true
    (String.length e.Kasm.message > 0);
  let e = parse_err ".if eq\nnop" in
  Alcotest.(check int) "unterminated if reported at opener" 1 e.Kasm.line;
  let e = parse_err ".endwhile" in
  Alcotest.(check bool) "stray endwhile" true (e.Kasm.line = 1);
  let e = parse_err "ldr r0, [r1, #4" in
  ignore e

let test_print_parse_roundtrip_samples () =
  List.iter
    (fun (name, prog) ->
      match Kasm.parse (Kasm.print prog) with
      | Ok prog' ->
          Alcotest.(check bool) name true (List.equal Insn.equal_stmt prog prog')
      | Error e -> Alcotest.failf "%s: reprint failed: %a" name Kasm.pp_error e)
    [
      ("add_args", Komodo_user.Progs.add_args);
      ("sum_to_n", Komodo_user.Progs.sum_to_n);
      ("checksum", Komodo_user.Progs.checksum);
      ("map_and_use_spare", Komodo_user.Progs.map_and_use_spare);
      ("self_paging_main", Komodo_user.Progs.self_paging_main);
      ("self_paging_dispatcher", Komodo_user.Progs.self_paging_dispatcher);
    ]

(* Random structured programs for the roundtrip property. *)
let arb_prog =
  let open QCheck.Gen in
  let reg = map (fun n -> Regs.R n) (int_bound 12) in
  let operand =
    oneof
      [ map (fun r -> Insn.Reg r) reg; map (fun n -> Insn.Imm (Word.of_int n)) (int_bound 0xFFFF) ]
  in
  let insn =
    oneof
      [
        map2 (fun r o -> Insn.Mov (r, o)) reg operand;
        map3 (fun a b o -> Insn.Add (a, b, o)) reg reg operand;
        map3 (fun a b o -> Insn.Ldr (a, b, o)) reg reg operand;
        map3 (fun a b o -> Insn.Str (a, b, o)) reg reg operand;
        map2 (fun r o -> Insn.Cmp (r, o)) reg operand;
        return (Insn.Svc Word.zero);
        return Insn.Nop;
      ]
  in
  let cond = oneofl [ Insn.EQ; Insn.NE; Insn.LT; Insn.GE; Insn.HI ] in
  let rec stmt depth =
    if depth = 0 then map (fun i -> Insn.I i) insn
    else
      frequency
        [
          (6, map (fun i -> Insn.I i) insn);
          ( 1,
            map3
              (fun c t e -> Insn.If (c, t, e))
              cond
              (list_size (int_range 1 3) (stmt (depth - 1)))
              (list_size (int_bound 2) (stmt (depth - 1))) );
          ( 1,
            map2 (fun c b -> Insn.While (c, b)) cond
              (list_size (int_range 1 3) (stmt (depth - 1))) );
        ]
  in
  QCheck.make
    ~print:(fun p -> Kasm.print p)
    (list_size (int_range 0 20) (stmt 2))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:200 arb_prog (fun prog ->
      match Kasm.parse (Kasm.print prog) with
      | Ok prog' -> List.equal Insn.equal_stmt prog prog'
      | Error _ -> false)

let prop_parse_never_raises =
  QCheck.Test.make ~name:"parse never raises on garbage" ~count:200
    QCheck.(string_of_size (Gen.int_bound 200))
    (fun src -> match Kasm.parse src with Ok _ | Error _ -> true)

let test_assembled_program_runs () =
  (* End to end: source text -> program -> enclave -> result. *)
  let src = {|
    ; r3 := r0 * r1 + r2
    mul r3, r0, r1
    add r3, r3, r2
    mov r1, r3
    mov r0, #0
    svc
  |} in
  let prog = parse_ok src in
  let os = boot () in
  let os, h = load_prog os prog in
  let _, e, v =
    Os.enter os ~thread:(List.hd h.Loader.threads)
      ~args:(Word.of_int 6, Word.of_int 7, Word.of_int 0)
  in
  check_err "runs" Errors.Success e;
  Alcotest.(check int) "6*7+0" 42 (Word.to_int v)

let suite =
  [
    Alcotest.test_case "basic instructions" `Quick test_basic_instructions;
    Alcotest.test_case "memory operands" `Quick test_memory_operands;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "sp/lr registers" `Quick test_registers;
    Alcotest.test_case "errors carry line numbers" `Quick test_errors_carry_lines;
    Alcotest.test_case "stock programs reprint" `Quick test_print_parse_roundtrip_samples;
    Alcotest.test_case "assembled program runs" `Quick test_assembled_program_runs;
    Testlib.qcheck prop_print_parse_roundtrip;
    Testlib.qcheck prop_parse_never_raises;
  ]

(* -- Symbols (.equ and built-ins) ----------------------------------------- *)

let test_equ_symbols () =
  let prog = parse_ok {|
    .equ sentinel 0xBEEF
    .equ base 4096
    mov r1, #sentinel
    mov r2, #base
    mov r0, #svc_exit
    svc
  |} in
  match prog with
  | [
   Insn.I (Insn.Mov (_, Insn.Imm s));
   Insn.I (Insn.Mov (_, Insn.Imm b));
   Insn.I (Insn.Mov (_, Insn.Imm z));
   Insn.I (Insn.Svc _);
  ] ->
      Alcotest.(check int) "hex symbol" 0xBEEF (Word.to_int s);
      Alcotest.(check int) "decimal symbol" 4096 (Word.to_int b);
      Alcotest.(check int) "builtin svc_exit" 0 (Word.to_int z)
  | _ -> Alcotest.fail "symbols mis-parsed"

let test_builtin_svc_symbols () =
  let prog = parse_ok "mov r0, #svc_map_data" in
  match prog with
  | [ Insn.I (Insn.Mov (_, Insn.Imm w)) ] ->
      Alcotest.(check int) "map_data number" Abi.svc_map_data (Word.to_int w)
  | _ -> Alcotest.fail "builtin mis-parsed"

let test_unknown_symbol_rejected () =
  let e = parse_err "mov r0, #nonsense" in
  Alcotest.(check int) "line" 1 e.Kasm.line

let test_equ_runs_end_to_end () =
  let prog = parse_ok {|
    .equ answer 42
    mov r1, #answer
    mov r0, #svc_exit
    svc
  |} in
  let os = boot () in
  let os, h = load_prog os prog in
  let _, e, v = enter0 os ~thread:(List.hd h.Loader.threads) in
  check_err "runs" Errors.Success e;
  Alcotest.(check int) "symbolized constant" 42 (Word.to_int v)

let suite =
  suite
  @ [
      Alcotest.test_case "equ symbols" `Quick test_equ_symbols;
      Alcotest.test_case "builtin svc symbols" `Quick test_builtin_svc_symbols;
      Alcotest.test_case "unknown symbol rejected" `Quick test_unknown_symbol_rejected;
      Alcotest.test_case "equ end-to-end" `Quick test_equ_runs_end_to_end;
    ]
