(* Host speed probe: a fixed slice of OCaml work that touches no
   repository code, timed around every campaign run. Other tenants of
   the host slow every program on it for seconds to minutes at a time,
   through the CPU and through the shared caches; the probe measures
   that slowdown in the same window as the campaign. *)

module M = Map.Make (Int)

(* A 4 MB table holding one full-period cycle, i -> (a i + 1) mod 2^19:
   chasing it misses the caches the way the campaigns' multi-megabyte
   worlds do. *)
let table =
  let mask = (1 lsl 19) - 1 in
  Array.init (mask + 1) (fun i -> ((i * 2654435761) + 1) land mask)

let work () =
  let j = ref 0 in
  for _ = 1 to 4096 do
    j := table.(!j)
  done;
  let m = ref M.empty in
  for i = 0 to 2047 do
    m := M.add (i * 7919 land 4095) (string_of_int i) !m
  done;
  let h = Hashtbl.create 64 in
  M.iter (fun k v -> Hashtbl.replace h v k) !m;
  let a = Array.init 2048 (fun i -> i * 2654435761 land 0xffff) in
  Array.sort compare a;
  Sys.opaque_identity (!j + Hashtbl.length h + a.(0))

(** The fastest of five timed runs of the probe work, in seconds. *)
let measure () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let _, dt = Util.time work in
    if dt < !best then best := dt
  done;
  !best

(** The probe time that reported host times are scaled to: about what
    the probe takes on a quiet 2.1 GHz x86-64 host. *)
let reference = 1.2e-3

(** Every probe reading taken so far, newest first. *)
let readings = ref []

(** [f ()] bracketed by two probe readings, with the factor
    [reference / probe] that scales the host times it took to the
    reference host speed. *)
let scaled f =
  let p0 = measure () in
  let r = f () in
  let p1 = measure () in
  readings := p1 :: p0 :: !readings;
  (r, reference /. (0.5 *. (p0 +. p1)))
