(** Attestation-serving benchmark: latency SLOs in model cycles.

    Runs the fixed serve campaign — [serve --sessions 20000 --seed 7]
    at [-j 1] — and holds its p99 enter, p99 attest (full service incl.
    churn and in-enclave re-verify) and p99 sojourn under fixed
    ceilings. These are pure functions of (cfg, seed) — any drift is a
    real cost change, and they diff byte-for-byte in
    [BENCH_serve.json] against the baseline. *)

module Serve = Komodo_serve.Serve
module SReport = Komodo_serve.Report
module Hist = Komodo_telemetry.Hist
module Json = Komodo_telemetry.Json

let sessions = 20_000
let seed = 7

(* Model-cycle SLO ceilings (p99, deterministic). The reference run
   measures enter p99 = 13033, attest p99 = 221183 (a recycle rebuild
   plus an in-enclave re-verify in the tail), sojourn p99 = 233471;
   ceilings leave ~30% headroom for legitimate cost-model drift. *)
let enter_p99_ceiling = 17_000
let attest_p99_ceiling = 290_000
let sojourn_p99_ceiling = 330_000

let run () =
  Report.print_header "Attestation serving (p99 SLOs)";
  let cfg = { Serve.defaults with Serve.sessions } in
  let r = Serve.run ~jobs:1 ~cfg ~seed () in
  if r.SReport.verify_failures > 0 then begin
    Printf.printf "ATTESTATION FAILURES: %d sessions failed verification\n"
      r.SReport.verify_failures;
    exit 1
  end;
  let enter99 = Hist.p99 r.SReport.h_enter in
  let attest99 = Hist.p99 r.SReport.h_attest in
  let sojourn99 = Hist.p99 r.SReport.h_sojourn in
  print_string (SReport.render r);
  (* The report carries its own komodo-serve/1 tag; the bench mirror
     must carry komodo-bench/1 (added by emit_json), so drop it here. *)
  Report.emit_json ~name:"serve"
    (match SReport.to_json r with
    | Json.Obj kvs ->
        Json.Obj
          (List.filter (fun (k, _) -> k <> "schema") kvs
          @ [
              (* Always the full session count, never a smoke run. *)
              ("smoke", Json.Bool false);
              ("enter_p99_ceiling", Json.Int enter_p99_ceiling);
              ("attest_p99_ceiling", Json.Int attest_p99_ceiling);
              ("sojourn_p99_ceiling", Json.Int sojourn_p99_ceiling);
            ])
    | other -> other);
  Printf.printf "\np99 enter %d / attest %d / sojourn %d cycles (ceilings %d / %d / %d)\n"
    enter99 attest99 sojourn99 enter_p99_ceiling attest_p99_ceiling
    sojourn_p99_ceiling;
  if enter99 > enter_p99_ceiling || attest99 > attest_p99_ceiling
     || sojourn99 > sojourn_p99_ceiling
  then begin
    Printf.printf "LATENCY SLO EXCEEDED\n";
    exit 1
  end
