(** A fixed pool of domains running independent trials 0..n-1 through a
    sharded (atomic-counter) work queue, with deterministic, schedule-
    independent readout.

    The caller must make each trial a pure function of its index (all
    randomness derived via {!Seedsplit}); the pool then guarantees the
    *report* is independent of scheduling:

    - results come back in trial-index order;
    - a failing campaign fails at the {e lowest} failing index, not the
      first to finish;
    - every trial below that index is run to completion (cancellation
      only skips higher indices), so the surviving prefix is exactly
      what a sequential run would have produced. *)

exception Trial_error of { index : int; msg : string }
(** A trial raised instead of returning a value. All domains are joined
    before this is rethrown (no orphaned workers), and [index] is the
    lowest raising index; [msg] is [label index ^ " raised: <exn>"]. *)

type 'a run =
  | Completed of 'a array  (** all [trials] results, in index order *)
  | Stopped of { prefix : 'a array; index : int; failure : 'a }
      (** the lowest failing trial: [prefix] holds the completed
          results of trials [0..index-1], all non-failing *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val run :
  ?label:(int -> string) ->
  ?on_trial:(int -> 'a -> unit) ->
  jobs:int ->
  trials:int ->
  failed:('a -> bool) ->
  (int -> 'a) ->
  'a run
(** [run ~jobs ~trials ~failed f] evaluates [f i] for [i = 0..trials-1]
    on [min jobs trials] domains, the calling one included ([jobs <= 1]
    spawns none), and stops early once a failing index bounds
    the remaining work. [label] renders a trial for error messages
    (callers include the derived seed). [on_trial i r] is fired after
    trial [i]'s result is published, on whichever domain ran it — it
    must be thread-safe, it only observes (exceptions it raises are
    swallowed), and it must not influence trial content.
    @raise Trial_error if a trial raises (lowest index wins).
    @raise Invalid_argument on a negative trial count. *)
