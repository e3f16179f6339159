(** Shared machinery for native enclave services.

    Native services (the notary, the attestation verifier) run as
    event-driven state machines: each entry to user mode invokes the
    service once, it performs work against its MMU-translated view of
    memory, and ends its burst with an Exit or another SVC. This module
    collects the register/memory access helpers, the event constructors,
    and the entropy-seeding state machine every such service starts
    with. *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Regs = Komodo_machine.Regs
module Exec = Komodo_machine.Exec
module Sha256 = Komodo_crypto.Sha256
module Bignum = Komodo_crypto.Bignum
module Rsa = Komodo_crypto.Rsa
module Abi = Komodo_core.Abi

exception Enclave_fault of Exec.fault

let ureg s i = State.read_reg s (Regs.R i)
let set_ureg s i v = State.write_reg s (Regs.R i) v

let load s va =
  match Exec.Uview.load s va with Ok w -> w | Error f -> raise (Enclave_fault f)

let store s va v =
  match Exec.Uview.store s va v with Ok s -> s | Error f -> raise (Enclave_fault f)

let read_words s va n = List.init n (fun i -> load s (Word.add va (Word.of_int (4 * i))))

let write_words s va ws =
  List.fold_left
    (fun (s, i) w -> (store s (Word.add va (Word.of_int (4 * i))) w, i + 1))
    (s, 0) ws
  |> fst

let words_to_bytes ws = String.concat "" (List.map Word.to_bytes_be ws)

let bytes_to_words s =
  if String.length s mod 4 <> 0 then invalid_arg "Native_util.bytes_to_words";
  List.init (String.length s / 4) (fun i -> Word.of_bytes_be s (4 * i))

(* -- Burst-ending events ------------------------------------------------- *)

(** Exit to the OS with [retval]. *)
let exit_with s retval =
  let s = set_ureg (set_ureg s 0 (Word.of_int Abi.svc_exit)) 1 retval in
  { Exec.nstate = s; nevent = Exec.Ev_svc Word.zero }

(** Issue an SVC with call number and arguments in r1... *)
let svc s call args =
  let s = set_ureg s 0 (Word.of_int call) in
  let s, _ = List.fold_left (fun (s, i) v -> (set_ureg s i v, i + 1)) (s, 1) args in
  { Exec.nstate = s; nevent = Exec.Ev_svc Word.zero }

(* -- Deterministic key generation from monitor entropy -------------------- *)

(** Expand seed words into an RSA key pair: SHA-256 in counter mode
    drives {!Rsa.generate}, so identical entropy gives identical keys
    (the reproducibility the whole-system tests rely on). *)
let generate_key ?(bits = 1024) seed_words =
  let key = words_to_bytes seed_words in
  let ctr = ref 0 and buf = ref "" and off = ref 32 in
  let rng () =
    if !off >= 32 then begin
      buf := Sha256.digest (key ^ string_of_int !ctr);
      incr ctr;
      off := 0
    end;
    let w = Word.to_int (Word.of_bytes_be !buf !off) in
    off := !off + 4;
    w
  in
  Rsa.generate ~rng ~bits

let key_words bits = bits / 32

let bignum_to_words ~bits b =
  let bytes = Bignum.to_bytes_be ~pad_to:(4 * key_words bits) b in
  bytes_to_words bytes

let words_to_bignum ws = Bignum.of_bytes_be (words_to_bytes ws)

(* -- Entropy-seeding state machine ----------------------------------------
   Every key-bearing service begins identically: gather four words of
   monitor entropy via GetRandom SVCs, tracked by a phase word in the
   service's state page. [seeding_step] runs one step; it either
   requests more entropy (returning the event) or hands the collected
   seed to [done_] once all four words are in. *)

type seeding = {
  state_va : Word.t;  (** state page base *)
  off_phase : int;  (** word offset of the phase *)
  off_seed : int;  (** word offset of the 4 seed words *)
}

let seeding_phase_ready = 5

let seeding_step cfg s ~phase ~(done_ : State.t -> Word.t list -> Exec.native_outcome) =
  let state_word i = load s (Word.add cfg.state_va (Word.of_int (4 * i))) in
  let set_state_word s i v = store s (Word.add cfg.state_va (Word.of_int (4 * i))) v in
  (* Bank the random word delivered in r1 (none on the very first call). *)
  let s =
    if phase >= 1 then set_state_word s (cfg.off_seed + phase - 1) (ureg s 1) else s
  in
  if phase < 4 then begin
    let s = set_state_word s cfg.off_phase (Word.of_int (phase + 1)) in
    svc (State.charge 32 s) Abi.svc_get_random []
  end
  else begin
    let seed = List.init 4 (fun i -> state_word (cfg.off_seed + i)) in
    done_ s seed
  end
