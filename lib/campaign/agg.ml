(* Deterministic merges the campaign engine's loops share. A seeded
   campaign's trials reduce through their driver ([Campaign.DRIVER]);
   the explorer's BFS levels reduce here. Every merge is
   order-insensitive or runs in slice order, so a parallel run's report
   is byte-identical to the sequential one. *)

module Cover = Komodo_spec.Cover
module Explore = Komodo_spec.Explore

let covers cs =
  let c = Cover.create () in
  List.iter (fun src -> Cover.merge_into c src) cs;
  c

(* -- exhaustive-exploration (explore) levels ----------------------------- *)

type explore_level = {
  el_edges : int;
  el_new : (string * Explore.snode * int * Explore.xop) list;
  el_cover : Cover.t;
  el_violation : (int * Explore.xop * string) option;
}

let explore (shards : Explore.shard list) : explore_level =
  (* Shards arrive in slice order (the pool's Stopped prefix plus the
     lowest failing shard). Cross-shard key collisions are resolved
     first-writer-wins in that order, so the merged level — and hence
     the whole search — is independent of how many domains ran it. *)
  let seen = Hashtbl.create 256 in
  let news = ref [] in
  let edges = ref 0 in
  let cover = Cover.create () in
  let violation = ref None in
  List.iter
    (fun (sh : Explore.shard) ->
      edges := !edges + sh.Explore.sh_edges;
      Cover.merge_into cover sh.Explore.sh_cover;
      List.iter
        (fun ((key, _, _, _) as entry) ->
          if not (Hashtbl.mem seen key) then (
            Hashtbl.add seen key ();
            news := entry :: !news))
        sh.Explore.sh_new;
      if !violation = None then violation := sh.Explore.sh_violation)
    shards;
  {
    el_edges = !edges;
    el_new = List.rev !news;
    el_cover = cover;
    el_violation = !violation;
  }
