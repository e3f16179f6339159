(** A minimal JSON value type, printer, and parser.

    The container image carries no JSON library, and the telemetry
    layer needs only enough JSON to emit JSONL traces and metrics
    dumps and to parse them back in tests and tooling — so this is a
    small, dependency-free implementation. Integers are kept distinct
    from floats (cycle counters and page numbers are exact). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') x y
  | _ -> false

(* -- Printing ----------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          (* Control characters must be escaped; bytes >= 0x7f are
             escaped too so the output is pure ASCII and arbitrary
             byte strings round-trip exactly (\u00XX = that byte). *)
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* -- Parsing ------------------------------------------------------------ *)

exception Parse_error of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let is_hex = function
                     | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                     | _ -> false
                   in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c when String.for_all is_hex hex -> c
                     | _ -> fail (Printf.sprintf "bad \\u escape %S" hex)
                   in
                   pos := !pos + 4;
                   (* {!write} only emits \u00XX (single bytes), which
                      must decode back to that byte for round-tripping;
                      higher code points (foreign input) decode as
                      UTF-8. *)
                   if code <= 0xFF then Buffer.add_char buf (Char.chr code)
                   else if code <= 0x7FF then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elems [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec members acc =
            let kv = member () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some c -> if c = '-' || (c >= '0' && c <= '9') then parse_number () else fail (Printf.sprintf "unexpected '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* -- Accessors ---------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None

(* -- Decoders ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field k conv j =
  match Option.bind (member k j) conv with
  | Some v -> Ok v
  | None -> Error ("missing/ill-typed " ^ k)

let int_field k j = field k to_int_opt j

let all ~what dec xs =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match dec x with
        | Ok v -> go (i + 1) (v :: acc) rest
        | Error e -> Error (Printf.sprintf "%s %d: %s" what i e))
  in
  go 0 [] xs

let ints_field k j =
  let* l = field k to_list_opt j in
  all ~what:(k ^ " element") (fun x -> Option.to_result ~none:"not an int" (to_int_opt x)) l

let name_field k of_string j =
  match member k j with
  | None | Some Null -> Ok None
  | Some (Str s) -> (
      match of_string s with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "unknown %s %S" k s))
  | Some _ -> Error ("ill-typed " ^ k)

let name to_string = function None -> Null | Some v -> Str (to_string v)
