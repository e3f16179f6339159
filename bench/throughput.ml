(** Campaign throughput: trials per second, tracked across PRs.

    Runs the two fixed campaigns the repo uses as its regression
    anchors — `check --trials 200 --seed 7` and `fault --trials 100
    --seed 7` — single-domain, and records trials/sec into
    [BENCH_throughput.json]. The nominal floors below are 3x the
    throughput of the seed (per-word map) memory representation
    measured on a quiet 1-core container (check: 200 trials / 4.33 s
    = 46.2 t/s; fault: 100 trials / 13.66 s = 7.3 t/s); a regression
    that drops either campaign below its floor fails the bench.

    Wallclock floors are host-speed-sensitive, so the floors are
    calibrated: a fixed SHA-256 workload (a code path whose cost per
    byte the memory refactor did not change) is timed first, and the
    floors scale by measured/nominal host speed. The seed
    representation's throughput would scale the same way, so the
    "3x over seed" criterion survives slow or contended runners.

    [KOMODO_THROUGHPUT_TRIALS] overrides the trial counts (CI smoke
    runs with a tiny count); the floors only bind at the full counts,
    since tiny runs are dominated by startup. *)

module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Campaign = Komodo_campaign.Campaign
module Sha256 = Komodo_crypto.Sha256

let full_check_trials = 200
let full_fault_trials = 100
let seed = 7

(* 3x the seed representation's throughput on the reference host. *)
let check_floor = 138.0
let fault_floor = 21.9

(* Seconds the calibration workload takes on the reference host
   (min-of-5 on the quiet container the floors were derived on). *)
let calib_nominal = 0.14

let trials_override () =
  match Sys.getenv_opt "KOMODO_THROUGHPUT_TRIALS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ ->
          Printf.eprintf "bench: bad KOMODO_THROUGHPUT_TRIALS %S\n%!" s;
          exit 2)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Time 8 MB of SHA-256 through the string path; the minimum over a
   few trials estimates unloaded host speed even on a runner with
   bursty background load. *)
let calibrate () =
  let s = String.make (1 lsl 20) 'x' in
  let best = ref infinity in
  for _ = 1 to 5 do
    let (), t =
      time (fun () ->
          let c = ref Sha256.init in
          for _ = 1 to 8 do
            c := Sha256.absorb !c s
          done;
          ignore (Sha256.finalize !c))
    in
    if t < !best then best := t
  done;
  !best

let run () =
  Report.print_header "Campaign throughput (trials/sec, -j 1)";
  let check_trials, fault_trials =
    match trials_override () with
    | None -> (full_check_trials, full_fault_trials)
    | Some n -> (n, n)
  in
  let smoke = check_trials <> full_check_trials in
  let calib = calibrate () in
  (* Host slower than nominal -> relax the floors proportionally (the
     seed representation would have slowed down just as much); capped
     at 4x so a broken calibration can't disable the check. Faster
     hosts keep the nominal floors — the margin only grows there. *)
  let scale = min 4.0 (max 1.0 (calib /. calib_nominal)) in
  let eff_check_floor = check_floor /. scale
  and eff_fault_floor = fault_floor /. scale in
  let c, ct =
    time (fun () -> Campaign.check ~jobs:1 ~trials:check_trials ~seed ())
  in
  (match c.Diff.divergence with
  | None -> ()
  | Some (tseed, _, d) ->
      Printf.printf "DIVERGENCE (trial seed %d): %s\n" tseed (Diff.pp_divergence d);
      exit 1);
  let f, ft =
    time (fun () ->
        Campaign.fault ~jobs:1 ~faults:Drive.all_classes ~trials:fault_trials
          ~seed ())
  in
  (match f.Drive.violation with
  | None -> ()
  | Some (tseed, _, v) ->
      Printf.printf "FAULT VIOLATION (trial seed %d): %s\n" tseed
        (Drive.pp_violation v);
      exit 1);
  let tps trials secs = if secs <= 0. then 0. else float_of_int trials /. secs in
  let ctps = tps c.Diff.trials_run ct and ftps = tps f.Drive.trials_run ft in
  let floor_cell v = if smoke then "n/a (smoke)" else Printf.sprintf "%.1f" v in
  Report.print_table ~json_name:"throughput" ~host_columns:[ "seconds"; "trials/sec" ]
    ~columns:[ "campaign"; "trials"; "seconds"; "trials/sec"; "floor" ]
    [
      [
        "check (refinement)";
        string_of_int c.Diff.trials_run;
        Printf.sprintf "%.3f" ct;
        Printf.sprintf "%.1f" ctps;
        floor_cell check_floor;
      ];
      [
        "fault (injection)";
        string_of_int f.Drive.trials_run;
        Printf.sprintf "%.3f" ft;
        Printf.sprintf "%.1f" ftps;
        floor_cell fault_floor;
      ];
    ];
  if smoke then
    Printf.printf
      "\nsmoke run (%d trials): floors not binding, JSON mirror written\n"
      check_trials
  else begin
    Printf.printf
      "\ncheck %.1f t/s, fault %.1f t/s (floors %.1f / %.1f; host calibration \
       %.3fs vs %.3fs nominal -> scaled to %.1f / %.1f)\n"
      ctps ftps check_floor fault_floor calib calib_nominal eff_check_floor
      eff_fault_floor;
    if ctps < eff_check_floor || ftps < eff_fault_floor then begin
      Printf.printf "THROUGHPUT BELOW FLOOR\n";
      exit 1
    end
  end
