(* What every workload provides to main.ml. *)

(** One campaign run. Campaign [r] of a benchmark run is a pure
    function of the workload seed and [r]; its digest covers the
    deterministic report (counts, coverage, histograms), so the same
    campaign run twice — untraced, profiled or traced — must digest
    identically. *)
type rep = {
  ops : int;  (** units of work: lockstep ops, fault ops, edges, sessions *)
  attempted : int;
      (** what [failed] counts out of: trials run (check, fault), edges
          checked (explore), sessions offered (serve) *)
  failed : int;
      (** divergent or violating trials, the violating edge, shed and
          MAC-failed sessions *)
  units : float array;  (** host seconds per independent unit *)
  wall : float;  (** host seconds for the whole campaign call *)
  digest : string;
  summary : string;  (** one line naming the digested counts *)
}

(** Modelled statistics of a run's first campaigns (deterministic per
    seed). [None] where the workload has no such statistic. *)
type model = {
  kcycles_per_op : float option;
  sojourn_p50_kcycles : float option;
  sojourn_p99_kcycles : float option;
  model_digest : string;  (** the report digests plus the model totals *)
  consistent : bool;
      (** the pass that produced the model statistics reproduced the
          untraced campaigns' digests *)
}

type t = {
  name : string;
  unit_name : string;  (** what one unit-time sample is *)
  ops_name : string;  (** what [rep.ops] counts *)
  setup : seed:int -> int -> unit;
      (** warm-up [k]: boot, fixtures and a few units of work *)
  run : seed:int -> int -> rep;
      (** campaign [r], untraced, through the public entry point *)
  model : seed:int -> rep list -> model;
      (** model statistics of the first campaigns, re-run after timing
          and checked against the untraced runs of the same campaigns *)
  traced : Layers.t -> seed:int -> int -> rep;
      (** campaign [r] replicated from its layers' public calls with
          every call timed; [units] exclude estimate re-calls *)
}

(** Whether re-run campaign [r] reproduced its untraced run (when the
    timed loop got that far). *)
let reproduces reps r (again : rep) =
  match List.nth_opt reps r with None -> true | Some rep -> rep.digest = again.digest

(** The root seed of campaign [r] of a run under [seed]. *)
let campaign_seed ~seed r = Komodo_rand.Seedsplit.derive ~root:(seed lxor 0x62656e63) r

(** The seed of warm-up [k]: disjoint from every campaign seed. *)
let setup_seed ~seed k = Komodo_rand.Seedsplit.derive ~root:(seed lxor 0x73657475) k

(** A timestamp recorder for the campaign progress hook: the reporter
    reads its clock once at creation, once per folded trial (or level)
    and once at finish, so consecutive stamps delimit units. *)
let stamp_clock () =
  let stamps = ref [] in
  let clock () =
    let t = Util.now () in
    stamps := t :: !stamps;
    t
  in
  (clock, stamps)

let progress ~label ~total clock =
  Komodo_campaign.Progress.create ~interval:infinity ~now:clock ~label ~total ()
