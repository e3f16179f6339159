(** Linearisability checking of interleaved monitor executions.

    The multi-core stepper ({!Komodo_os.Smp}) retires calls with a
    global validation order — each call's validation under its complete
    lock footprint is its claimed linearisation point. This module
    checks that claim against the sequential abstract spec
    ({!Aspec}): is there a total order of the retired calls, consistent
    with each CPU's program order, whose sequential replay from the
    initial abstract state reproduces every call's observed (error,
    return) pair and reaches the final abstract state?

    Two phases:

    - {e primary witness}: replay the calls in validation order. Under
      correct locking this almost always succeeds — the only way it can
      fail legitimately is a lock-free read-only call (GetPhysPages
      takes no locks) observing state from {e before} an
      already-validated-but-not-yet-committed writer;
    - {e fallback search}: a memoised DFS over all interleavings
      consistent with per-CPU program order. Memoisation keys on
      (position vector, canonical state hash); states with opaque
      measurements cannot be canonically keyed and are simply not
      memoised. Only if {e no} interleaving replays the observations is
      the execution a violation — the genuine article, not a scheduling
      artefact.

    Enter/Resume observations resolve through the spec's pending
    protocol: the spec validates the preconditions exactly, then the
    observed error word must be a legal outcome of opaque enclave
    execution ({!Aspec.allowed_outcome}). *)

module Smp = Komodo_os.Smp
module Errors = Komodo_core.Errors
module Word = Komodo_machine.Word

type op = {
  o_cpu : int;
  o_index : int;  (** program order within the CPU *)
  o_call : int;
  o_args : int list;
  o_err : int;  (** observed error word *)
  o_ret : int;  (** observed r1 *)
}

let op_of_event (e : Smp.event) =
  {
    o_cpu = e.Smp.ev_cpu;
    o_index = e.Smp.ev_index;
    o_call = e.Smp.ev_call;
    o_args = List.map Word.to_int e.Smp.ev_args;
    o_err = Word.to_int (Errors.to_word e.Smp.ev_err);
    o_ret = Word.to_int e.Smp.ev_ret;
  }

let pp_op o =
  Printf.sprintf "cpu%d#%d %s(%s) -> %s/%d" o.o_cpu o.o_index
    (Aspec.smc_name o.o_call)
    (String.concat "," (List.map string_of_int o.o_args))
    (Aspec.err_name o.o_err) o.o_ret

type verdict =
  | Linearisable of { order : (int * int) list; primary : bool }
      (** a witness order as [(cpu, index)] pairs; [primary] when the
          validation order itself was the witness *)
  | Violation of { reason : string }
  | Inconclusive of { reason : string }
      (** the fallback search exceeded its node budget — never observed
          in practice for campaign-sized op streams *)

(* Replay one op against the spec; [None] when the spec refuses the
   observed outcome. Probes and content oracles do not arise here: the
   smp campaigns never run probe threads, and MapSecure is issued with
   content=0 (zero-fill), which the spec measures exactly. *)
let step_op st o =
  match
    Aspec.step_smc st
      ~probe:(fun _ _ -> false)
      ~contents:None ~call:o.o_call ~args:o.o_args
  with
  | Aspec.Done (st', err, ret) ->
      if err = o.o_err && ret = o.o_ret then Some st' else None
  | Aspec.Pending p -> (
      match Aspec.allowed_outcome o.o_err with
      | Some outcome -> Some (Aspec.resolve st p ~outcome)
      | None -> None)
  | exception Aspec.Stuck _ -> None

let replay_order st ops =
  let rec go st = function
    | [] -> Some st
    | o :: rest -> ( match step_op st o with Some st' -> go st' rest | None -> None)
  in
  go st ops

(* -- The fallback interleaving search ----------------------------------- *)

let search ~budget init ~final (queues : op array array) =
  let ncpus = Array.length queues in
  let nodes = ref 0 in
  let seen = Hashtbl.create 1024 in
  let exhausted = ref false in
  let memo_key pos st =
    (* Opaque measurements admit no canonical key; skip memoising. *)
    match Ahash.key st with
    | k -> Some (Array.to_list pos, k)
    | exception Invalid_argument _ -> None
  in
  (* DFS returning the witness suffix (reversed) on success. *)
  let rec dfs pos st =
    incr nodes;
    if !nodes > budget then begin
      exhausted := true;
      None
    end
    else if Array.for_all2 (fun p q -> p = Array.length q) pos queues then
      if Astate.equal st final then Some [] else None
    else
      let mk = memo_key pos st in
      match mk with
      | Some k when Hashtbl.mem seen k -> None
      | _ ->
          let rec try_cpu c =
            if c >= ncpus then begin
              (match mk with Some k -> Hashtbl.add seen k () | None -> ());
              None
            end
            else if pos.(c) >= Array.length queues.(c) then try_cpu (c + 1)
            else
              let o = queues.(c).(pos.(c)) in
              match step_op st o with
              | None -> try_cpu (c + 1)
              | Some st' -> (
                  pos.(c) <- pos.(c) + 1;
                  let r = dfs pos st' in
                  pos.(c) <- pos.(c) - 1;
                  match r with
                  | Some tail -> Some ((o.o_cpu, o.o_index) :: tail)
                  | None -> if !exhausted then None else try_cpu (c + 1))
          in
          try_cpu 0
  in
  (dfs (Array.make ncpus 0) init, !exhausted)

let default_budget = 1_000_000

(** Check the retired calls of one multi-core run. [events] must be in
    validation order (as {!Komodo_os.Smp.outcome} delivers them);
    [init]/[final] are the abstract states before and after the run. *)
let check ?(budget = default_budget) ~init ~final (events : Smp.event list) =
  let ops = List.map op_of_event events in
  (* Primary witness: the validation order. *)
  match replay_order init ops with
  | Some st when Astate.equal st final ->
      Linearisable
        { order = List.map (fun o -> (o.o_cpu, o.o_index)) ops; primary = true }
  | _ -> (
      (* Fallback: search all program-order-consistent interleavings. *)
      let ncpus =
        List.fold_left (fun a o -> max a (o.o_cpu + 1)) 0 ops
      in
      let queues =
        Array.init ncpus (fun c ->
            Array.of_list
              (List.sort
                 (fun a b -> Int.compare a.o_index b.o_index)
                 (List.filter (fun o -> o.o_cpu = c) ops)))
      in
      match search ~budget init ~final queues with
      | Some order, _ -> Linearisable { order; primary = false }
      | None, true ->
          Inconclusive
            { reason = Printf.sprintf "search budget (%d nodes) exceeded" budget }
      | None, false ->
          let shown = List.filteri (fun i _ -> i < 8) ops in
          Violation
            {
              reason =
                Printf.sprintf
                  "no interleaving of %d retired calls replays the observed \
                   results and final state (first ops: %s)"
                  (List.length ops)
                  (String.concat "; " (List.map pp_op shown));
            })
