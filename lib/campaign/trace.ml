(* The komodo-trace/1 envelope (see the interface). *)

module Json = Komodo_telemetry.Json

let schema = "komodo-trace/1"
let ( let* ) = Result.bind

let to_lines ~kind ~seed fields ops =
  let header =
    [ ("schema", Json.Str schema); ("kind", Json.Str kind); ("seed", Json.Int seed) ]
  in
  List.map Json.to_string (Json.Obj (header @ fields) :: ops)

let nonblank = List.filter (fun l -> String.trim l <> "")

let of_lines ~kind lines =
  match nonblank lines with
  | [] -> Error "empty trace"
  | hline :: rest ->
      let* h = Result.map_error (( ^ ) "header: ") (Json.parse hline) in
      let* () =
        match Json.member "schema" h with
        | Some (Json.Str s) when s = schema -> Ok ()
        | _ -> Error ("not a " ^ schema ^ " trace (bad or missing schema)")
      in
      let* k = Json.field "kind" Json.to_string_opt h in
      let* () =
        if k = kind then Ok ()
        else Error (Printf.sprintf "a %s trace, expected %s" k kind)
      in
      let* seed = Json.int_field "seed" h in
      let* ops = Json.all ~what:"op" Json.parse rest in
      Ok (seed, h, ops)

let is_trace lines =
  match nonblank lines with
  | l :: _ -> (
      match Json.parse l with
      | Ok h -> Json.member "schema" h = Some (Json.Str schema)
      | Error _ -> false)
  | [] -> false

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok (String.split_on_char '\n' text)
  | exception Sys_error e -> Error e

let save path lines =
  match
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  with
  | () -> Ok ()
  | exception Sys_error e -> Error e
