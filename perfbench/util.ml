(* Clocks, samples and quantiles shared by every workload. *)

(* Monotonic nanosecond clock, in seconds: sub-microsecond layer calls
   need more resolution than gettimeofday's microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [time f] is [(f (), seconds f took)]. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Nearest-rank quantile of an unsorted sample; 0 on an empty one. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))
  end

let median xs = quantile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0. xs

(** A growable float sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(** Consecutive differences of a list of timestamps given newest first:
    the durations between the first [n + 1] stamps, oldest first. *)
let intervals ~n stamps =
  let a = Array.of_list (List.rev stamps) in
  if Array.length a < n + 1 then
    failwith
      (Printf.sprintf "perfbench: %d unit stamps for %d units" (Array.length a) n);
  Array.init n (fun i -> a.(i + 1) -. a.(i))

let digest s = Digest.to_hex (Digest.string s)

(** Peak resident set of this process in MB (Linux [VmHWM]). *)
let peak_mem_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
