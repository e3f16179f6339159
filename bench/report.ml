(** Table rendering for the benchmark reports.

    Every table can also be mirrored as machine-readable JSON: pass
    [~json_name:"table3_microbench"] to {!print_table} and the table is
    written to [BENCH_table3_microbench.json] as
    [{"columns":[...],"rows":[[...],...]}], in the directory named by
    [KOMODO_BENCH_JSON_DIR] (default: the working directory). The
    notice naming the file goes to stderr so stdout stays a stable,
    diffable text report.

    Every cell is a pure function of the bench's fixed inputs (model
    cycles, counts, digests): no section reads a clock, so
    [komodo bench --compare] holds every cell to its baseline
    exactly. *)

module Json = Komodo_telemetry.Json

let rule width = String.make width '-'

let print_header title =
  Printf.printf "\n%s\n%s\n" title (rule (String.length title))

let json_dir () =
  match Sys.getenv_opt "KOMODO_BENCH_JSON_DIR" with Some d -> d | None -> "."

(* Every emitted file carries a schema/version tag so downstream
   tooling (`komodo bench --compare`) can reject mirrors produced by an
   incompatible bench harness instead of mis-diffing them. *)
let bench_schema = "komodo-bench/1"

(** Write [BENCH_<name>.json] with any JSON payload (e.g. a telemetry
    metrics dump). A [schema] field is added at top level (non-object
    payloads are wrapped as [{"schema":..,"data":..}]). *)
let emit_json ~name json =
  let json =
    match json with
    | Json.Obj kvs when not (List.mem_assoc "schema" kvs) ->
        Json.Obj (("schema", Json.Str bench_schema) :: kvs)
    | Json.Obj _ -> json
    | other -> Json.Obj [ ("schema", Json.Str bench_schema); ("data", other) ]
  in
  let path = Filename.concat (json_dir ()) ("BENCH_" ^ name ^ ".json") in
  match
    let oc = open_out path in
    output_string oc (Json.to_string json);
    output_char oc '\n';
    close_out oc
  with
  | () -> Printf.eprintf "[wrote %s]\n%!" path
  | exception Sys_error e ->
      (* A bench run whose artifacts silently vanish is worse than a
         failing one: the trajectory would show a gap, not an error. *)
      Printf.eprintf "bench: cannot write JSON mirror %s: %s\n%!" path e;
      exit 1

let table_json ~columns rows =
  let strings l = Json.List (List.map (fun s -> Json.Str s) l) in
  Json.Obj [ ("columns", strings columns); ("rows", Json.List (List.map strings rows)) ]

(** Print a table with left-aligned first column; [json_name] mirrors it
    to [BENCH_<json_name>.json]. *)
let print_table ?json_name ~columns rows =
  let ncols = List.length columns in
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        if i = 0 then Printf.printf "%-*s" w cell else Printf.printf "  %*s" w cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> rule w) widths |> List.mapi (fun i s -> if i < ncols then s else s));
  List.iter print_row rows;
  match json_name with
  | None -> ()
  | Some name -> emit_json ~name (table_json ~columns rows)

let ratio a b = if b = 0 then "n/a" else Printf.sprintf "%.2fx" (float_of_int a /. float_of_int b)
let cycles c = Printf.sprintf "%d" c
let ms f = Printf.sprintf "%.2f" f
