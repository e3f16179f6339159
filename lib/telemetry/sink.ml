(** Pluggable event sinks.

    A sink is where the instrumented monitor sends its events. The
    [Null] sink is a distinguished constructor, not a no-op closure, so
    instrumentation sites can test {!is_null} with one branch and skip
    building the event entirely — the verified-path semantics (and the
    bench cycle numbers) are bit-for-bit unchanged when telemetry is
    off.

    Sinks are mutable objects shared by every copy of the (otherwise
    purely functional) monitor state; emission is the one side effect
    of the telemetry layer and charges no modelled cycles.

    A sink also carries a [flush] action so buffered backends (JSONL
    channels) can be drained at quiesce points — {!Os.teardown} and
    campaign completion call {!flush}, guaranteeing trace files are
    complete even if the process is about to exit. *)

type t = Null | Emit of { emit : Event.stamped -> unit; flush : unit -> unit }

let null = Null
let is_null = function Null -> true | Emit _ -> false
let emit t ev = match t with Null -> () | Emit { emit; _ } -> emit ev
let flush = function Null -> () | Emit { flush; _ } -> flush ()
let make ?(flush = fun () -> ()) f = Emit { emit = f; flush }

(** Fan one event stream out to several sinks ([Null]s are dropped);
    flushing the fanout flushes every live member. *)
let fanout sinks =
  match List.filter (fun s -> not (is_null s)) sinks with
  | [] -> Null
  | [ s ] -> s
  | live ->
      Emit
        {
          emit = (fun ev -> List.iter (fun s -> emit s ev) live);
          flush = (fun () -> List.iter flush live);
        }

(** Accumulate every event in order; the second component returns the
    events seen so far. *)
let collect () =
  let events = ref [] in
  (make (fun ev -> events := ev :: !events), fun () -> List.rev !events)

(** Stream events to [oc] as JSONL, one event per line; {!flush}
    drains the channel (the caller still closes it). *)
let jsonl oc =
  make
    ~flush:(fun () -> Stdlib.flush oc)
    (fun ev ->
      output_string oc (Event.to_jsonl_line ev);
      output_char oc '\n')

(** Human-readable event lines on [ppf]. *)
let console ppf =
  make
    ~flush:(fun () -> Format.pp_print_flush ppf ())
    (fun ev -> Format.fprintf ppf "%a@." Event.pp_stamped ev)

