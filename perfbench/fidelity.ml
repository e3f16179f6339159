(* The traced-run fidelity test.

   On a fixed seed and small campaigns, for every workload:
   - the traced replica reproduces the untraced campaign: same unit
     count, same op count, same report digest;
   - every isolated re-call returned what the program produced for
     the same op: Os.smc error/return words and cycles, the
     Aspec.step_smc outcome, the Abs.abs state (Astate.equal), and,
     for serve, the Enter inside Session.attest and Attest.verify.

   Run with: dune build @perfbench/fidelity *)

let seed = 7

let small =
  [
    Wl_check.make ~trials:12;
    Wl_fault.make ~trials:8;
    Wl_explore.make ~depth:5;
    Wl_serve.make { Wl_serve.default with Komodo_serve.Serve.sessions = 1024; shard_sessions = 256 };
  ]

(* Layers each workload must have re-called at least once. *)
let required (wl : Workload.t) (l : Layers.t) =
  let some a = a.Layers.calls > 0 in
  match wl.Workload.name with
  | "check" -> [ ("Os.smc crossing", some l.Layers.crossing); ("Os.smc", some l.Layers.smc);
                 ("Aspec.step_smc", some l.Layers.aspec); ("Abs.abs", some l.Layers.abs);
                 ("Astate.diff", some l.Layers.compare) ]
  | "fault" -> [ ("Os.smc", some l.Layers.smc); ("Abs.abs", some l.Layers.abs);
                 ("Pagedb.check", some l.Layers.pagedb); ("atomicity", some l.Layers.atomic) ]
  | "explore" -> [ ("Explore.expand_range", some l.Layers.node);
                   ("Aspec.step_smc", some l.Layers.aspec); ("Explore.node_key", some l.Layers.key) ]
  | _ -> [ ("Pool.serve", some l.Layers.service); ("Session.attest", some l.Layers.session);
           ("Attest.verify", some l.Layers.verify); ("Session.enclave_verify", some l.Layers.everify) ]

let test (wl : Workload.t) =
  let u = wl.Workload.run ~seed 0 in
  let l = Layers.create () in
  let t = wl.Workload.traced l ~seed 0 in
  let checks =
    [
      ("unit count", Array.length t.Workload.units = Array.length u.Workload.units);
      ("op count", t.Workload.ops = u.Workload.ops);
      ("report digest", t.Workload.digest = u.Workload.digest);
      ("no failures", u.Workload.failed = 0 && t.Workload.failed = 0);
      ("isolated re-calls agree", l.Layers.mismatches = []);
    ]
    @ List.map (fun (what, ok) -> (what ^ " re-called", ok)) (required wl l)
  in
  Printf.printf "%s: %s; %d re-call checks\n" wl.Workload.name u.Workload.summary
    l.Layers.checks;
  List.iter (fun m -> Printf.printf "  mismatch: %s\n" m) (List.rev l.Layers.mismatches);
  List.for_all
    (fun (what, ok) ->
      Printf.printf "  %-36s %s\n" what (if ok then "ok" else "FAIL");
      ok)
    checks

let () =
  let results = List.map test small in
  if List.for_all Fun.id results then print_endline "fidelity: all workloads pass"
  else begin
    print_endline "fidelity: FAILED";
    exit 1
  end
