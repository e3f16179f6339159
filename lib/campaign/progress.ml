(* Streaming campaign observability: a mutex-protected reporter fed
   from Pool's [on_trial] hook (any domain), emitting periodic
   snapshots to a live stderr line and/or a JSONL mirror.

   Strictly an observer: it never touches trial content or the campaign
   report, so enabling it cannot perturb the byte-identical `-j 1` /
   `-j N` contract. The clock is injected — the library takes no unix
   dependency, and tests drive it with a fake clock for deterministic
   snapshot streams. All wallclock-derived fields (elapsed, trials/s)
   live only in the snapshots, never in campaign output. *)

module Hist = Komodo_telemetry.Hist
module Json = Komodo_telemetry.Json

let schema = "komodo-progress/1"

type t = {
  now : unit -> float;
  interval : float;
  live : bool;
  jsonl : out_channel option;
  label : string;
  total : int;
  mu : Mutex.t;
  started : float;
  mutable trials_done : int;
  mutable failures : int;  (** failing trials seen *)
  mutable counters : (string * int) list;
      (** the campaign's unit counters, summed by name, first-seen order *)
  mutable hists : (string * Hist.t) list;
      (** its latency histograms, merged by name, first-seen order *)
  mutable last_emit : float;
  mutable emitted : int;
}

let create ?(interval = 0.5) ?(live = false) ?jsonl ~now ~label ~total () =
  {
    now;
    interval;
    live;
    jsonl;
    label;
    total;
    mu = Mutex.create ();
    started = now ();
    trials_done = 0;
    failures = 0;
    counters = [];
    hists = [];
    last_emit = neg_infinity;
    emitted = 0;
  }

let per_s n elapsed = if elapsed > 0. then float_of_int n /. elapsed else 0.
let quantiles (k, h) = [ (k ^ "_p50", Hist.p50 h); (k ^ "_p99", Hist.p99 h) ]

let snapshot_json t elapsed =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("label", Json.Str t.label);
       ("done", Json.Int t.trials_done);
       ("total", Json.Int t.total);
       ("elapsed_s", Json.Float elapsed);
       ("trials_per_s", Json.Float (per_s t.trials_done elapsed));
       ("failures", Json.Int t.failures);
     ]
    @ List.map (fun (k, n) -> (k, Json.Int n)) (t.counters @ List.concat_map quantiles t.hists))

let live_line t elapsed =
  let hist (k, h) = Printf.sprintf "%s p50/p99 %d/%d, " k (Hist.p50 h) (Hist.p99 h) in
  Printf.sprintf "\rkomodo %s: %d/%d done, %.1f/s, %s%s%d failures" t.label t.trials_done
    t.total (per_s t.trials_done elapsed)
    (String.concat "" (List.map (fun (k, n) -> Printf.sprintf "%d %s, " n k) t.counters))
    (String.concat "" (List.map hist t.hists))
    t.failures

(* Caller holds the mutex. *)
let emit t ~final =
  let now = t.now () in
  if final || now -. t.last_emit >= t.interval || t.trials_done >= t.total
  then begin
    t.last_emit <- now;
    t.emitted <- t.emitted + 1;
    let elapsed = now -. t.started in
    if t.live then begin
      output_string stderr (live_line t elapsed);
      if final then output_string stderr "\n";
      flush stderr
    end;
    match t.jsonl with
    | None -> ()
    | Some oc ->
        output_string oc (Json.to_string (snapshot_json t elapsed));
        output_char oc '\n';
        if final then flush oc
  end

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let trial t ?(hists = []) ~failed counters =
  locked t (fun () ->
      t.trials_done <- t.trials_done + 1;
      if failed then t.failures <- t.failures + 1;
      t.counters <-
        List.fold_left
          (fun acc (k, n) ->
            if List.mem_assoc k acc then
              List.map (fun (k', m) -> (k', if k' = k then m + n else m)) acc
            else acc @ [ (k, n) ])
          t.counters counters;
      List.iter
        (fun (k, h) ->
          match List.assoc_opt k t.hists with
          | Some acc -> Hist.merge_into acc h
          | None -> t.hists <- t.hists @ [ (k, Hist.copy h) ])
        hists;
      emit t ~final:false)

let finish t =
  locked t (fun () -> emit t ~final:true)

let snapshots t = locked t (fun () -> t.emitted)
