(* A fixed pool of domains working through trial indices 0..trials-1.

   The queue is a single atomic counter: workers claim the next unrun
   index, run it, and publish the result into a per-index slot. Nothing
   about the *content* of a trial may depend on the schedule — callers
   derive all per-trial randomness from the index (see Seedsplit) — so
   the pool only has to make the *report* schedule-independent:

   - results are read out in index order after every domain has joined;
   - on failure, the campaign's failure is the failing trial with the
     LOWEST index, never the first to finish;
   - cancellation never skips an index below the lowest known failure,
     so the merged prefix 0..k-1 is always complete and equal to what a
     sequential run would have produced.

   Cancellation invariant: [bound] only decreases, and it is only
   lowered by the worker that ran (and failed) that index. A worker
   skips index i only when i > bound at claim time, hence only when
   some failing index < i exists; contrapositive, every index <= the
   final bound was claimed and run to completion. The readout scan
   therefore never finds an empty slot below the first failure. *)

exception
  Trial_error of { index : int; msg : string }
      (** A trial raised instead of returning. The pool joins every
          domain first — a crashing worker never strands the others —
          then rethrows on the coordinating domain, for the lowest
          raising index. *)

let () =
  Printexc.register_printer (function
    | Trial_error { index; msg } ->
        Some (Printf.sprintf "Pool.Trial_error(trial %d: %s)" index msg)
    | _ -> None)

type 'a run =
  | Completed of 'a array
  | Stopped of { prefix : 'a array; index : int; failure : 'a }

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* A finished slot: the trial's value, or the exception it raised
   (rendered in the worker — exception values need not cross domains). *)
type 'a slot = Value of 'a | Raised of string

let run ?label ?on_trial ~jobs ~trials ~failed run_trial =
  let label =
    match label with Some f -> f | None -> Printf.sprintf "trial %d"
  in
  if trials < 0 then invalid_arg "Pool.run: negative trial count";
  if trials = 0 then Completed [||]
  else begin
    let results : 'a slot option array = Array.make trials None in
    let jobs = max 1 (min jobs trials) in
    let attempt i = try Value (run_trial i) with e -> Raised (Printexc.to_string e) in
    (* Observation hook: fired after a trial's result is published, on
       the domain that ran it. Must be thread-safe; must not affect
       trial content (the report stays schedule-independent because
       the hook only observes). *)
    let observe i r =
      match (on_trial, r) with
      | Some f, Value a -> ( try f i a with _ -> ())
      | _ -> ()
    in
    let is_failure = function
      | Raised _ -> true
      | Value a -> failed a
    in
    (* With one job no domain is spawned: the calling domain claims
       indices in order, and once index i fails [bound] refuses i+1. *)
    let next = Atomic.make 0 in
    let bound = Atomic.make max_int in
    let rec lower i =
      let b = Atomic.get bound in
      if i < b && not (Atomic.compare_and_set bound b i) then lower i
    in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < trials && i <= Atomic.get bound then begin
        let r = attempt i in
        results.(i) <- Some r;
        observe i r;
        if is_failure r then lower i;
        worker ()
      end
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    (* Deterministic readout: scan up from index 0 for the first
       failure. The cancellation invariant guarantees every slot below
       it is filled. *)
    let value_at j =
      match results.(j) with
      | Some (Value a) -> a
      | _ -> assert false (* scan stopped before j, or cancellation bug *)
    in
    let rec scan i =
      if i >= trials then None
      else
        match results.(i) with
        | Some r when is_failure r -> Some (i, r)
        | Some (Value _) -> scan (i + 1)
        | Some (Raised _) | None -> assert false (* slot below the lowest failure left unrun *)
    in
    match scan 0 with
    | None -> Completed (Array.init trials value_at)
    | Some (i, Raised msg) ->
        raise (Trial_error { index = i; msg = label i ^ " raised: " ^ msg })
    | Some (i, Value failure) ->
        Stopped { prefix = Array.init i value_at; index = i; failure }
  end
