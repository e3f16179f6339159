(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). Every number it
   prints is model-exact (cycles, counts, digests); host time is
   measured only by perfbench/.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table3  -- run one section

   Sections: table1 table2 table3 figure5 ablations latency security
   refinement campaign explore vault serve profile *)

let security () =
  Report.print_header "Security (Theorem 6.1 harness + attack library)";
  let seeds = [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun seed ->
      (match Komodo_sec.Nonint.run_confidentiality ~seed ~nops:80 with
      | None -> Printf.printf "confidentiality (seed %d, 80 ops): preserved\n" seed
      | Some f ->
          Printf.printf "confidentiality (seed %d): VIOLATED %s\n" seed
            (Format.asprintf "%a" Komodo_sec.Nonint.pp_failure f);
          exit 1);
      match Komodo_sec.Nonint.run_integrity ~seed ~nops:80 with
      | None -> Printf.printf "integrity       (seed %d, 80 ops): preserved\n" seed
      | Some f ->
          Printf.printf "integrity (seed %d): VIOLATED %s\n" seed
            (Format.asprintf "%a" Komodo_sec.Nonint.pp_failure f);
          exit 1)
    seeds;
  let defended =
    List.for_all
      (fun (name, attack) ->
        match attack () with
        | Komodo_sec.Attacks.Defended -> true
        | Komodo_sec.Attacks.Leaked m ->
            Printf.printf "ATTACK SUCCEEDED: %s (%s)\n" name m;
            false)
      Komodo_sec.Attacks.all_komodo
  in
  Printf.printf "attack library: %d/%d defended\n"
    (List.length Komodo_sec.Attacks.all_komodo)
    (List.length Komodo_sec.Attacks.all_komodo);
  if not defended then exit 1

let sections =
  [
    ("table1", Api_sweep.run);
    ("table2", Linecount.run);
    ("table3", Microbench.run);
    ("figure5", Fig5.run);
    ("ablations", Ablations.run);
    ("latency", Latency.run);
    ("security", security);
    ("refinement", Refinement.run);
    ("campaign", Campaign_bench.run);
    ("explore", Explore_bench.run);
    ("vault", Vault_bench.run);
    ("serve", Serve_bench.run);
    ("profile", Profile_bench.run);
  ]

let () =
  let chosen =
    match Array.to_list Sys.argv with
    | _ :: rest when rest <> [] ->
        List.filter (fun (name, _) -> List.mem name rest) sections
    | _ -> sections
  in
  if chosen = [] then begin
    Printf.printf "unknown section; available: %s\n"
      (String.concat " " (List.map fst sections));
    exit 2
  end;
  print_endline "Komodo reproduction benchmarks (SOSP 2017)";
  print_endline "==========================================";
  List.iter (fun (_, run) -> run ()) chosen;
  print_endline "\nall benchmark sections completed"
