(** The ARMv7 register file with banking.

    Core registers R0-R12 are shared across modes. SP, LR and SPSR are
    banked according to the current mode: user-mode accesses to SP refer
    to a concrete register SP_usr, monitor-mode code accesses SP_mon, etc.
    Following the paper (§5.1) we model all banked registers except the
    FIQ-only banks of R8-R12, which Komodo never needs. *)

type reg =
  | R of int  (** general-purpose R0..R12 *)
  | SP  (** stack pointer, banked by mode *)
  | LR  (** link register, banked by mode *)
[@@deriving eq, ord]

let pp_reg fmt = function
  | R n -> Format.fprintf fmt "r%d" n
  | SP -> Format.pp_print_string fmt "sp"
  | LR -> Format.pp_print_string fmt "lr"

let show_reg r = Format.asprintf "%a" pp_reg r

(** Special (banked/status) registers addressable by MRS/MSR. *)
type sreg =
  | SP_of of Mode.t
  | LR_of of Mode.t
  | SPSR_of of Mode.t  (** invalid for [Mode.User] *)
[@@deriving eq, ord]

let pp_sreg fmt = function
  | SP_of m -> Format.fprintf fmt "sp_%s" (Mode.show m)
  | LR_of m -> Format.fprintf fmt "lr_%s" (Mode.show m)
  | SPSR_of m -> Format.fprintf fmt "spsr_%s" (Mode.show m)

let show_sreg r = Format.asprintf "%a" pp_sreg r

module Mode_map = Map.Make (struct
  type t = Mode.t

  let compare = Mode.compare
end)

type t = {
  gp : Word.t array;  (** r0..r12; functional updates copy *)
  sp : Word.t Mode_map.t;
  lr : Word.t Mode_map.t;
  spsr : Word.t Mode_map.t;  (** exception modes only *)
}

let num_gp = 13

let init_banked value =
  List.fold_left (fun m md -> Mode_map.add md value m) Mode_map.empty Mode.all

let zeroed =
  {
    gp = Array.make num_gp Word.zero;
    sp = init_banked Word.zero;
    lr = init_banked Word.zero;
    spsr =
      List.fold_left
        (fun m md -> if Mode.has_spsr md then Mode_map.add md Word.zero m else m)
        Mode_map.empty Mode.all;
  }

let gp_index = function
  | R n ->
      if n < 0 || n >= num_gp then invalid_arg "Regs: general register out of range";
      n
  | SP | LR -> invalid_arg "Regs.gp_index: banked register"

(** [read t ~mode r] reads [r] as seen from [mode]. *)
let read t ~mode = function
  | R _ as r -> t.gp.(gp_index r)
  | SP -> Mode_map.find mode t.sp
  | LR -> Mode_map.find mode t.lr

let write t ~mode r v =
  match r with
  | R _ as r ->
      let gp = Array.copy t.gp in
      gp.(gp_index r) <- v;
      { t with gp }
  | SP -> { t with sp = Mode_map.add mode v t.sp }
  | LR -> { t with lr = Mode_map.add mode v t.lr }

(** Banked-register access by explicit mode (the MRS/MSR path used by the
    monitor to save and restore other modes' registers). *)
let read_sreg t = function
  | SP_of m -> Mode_map.find m t.sp
  | LR_of m -> Mode_map.find m t.lr
  | SPSR_of m -> (
      match Mode_map.find_opt m t.spsr with
      | Some v -> v
      | None -> invalid_arg "Regs.read_sreg: user mode has no SPSR")

let write_sreg t sr v =
  match sr with
  | SP_of m -> { t with sp = Mode_map.add m v t.sp }
  | LR_of m -> { t with lr = Mode_map.add m v t.lr }
  | SPSR_of m ->
      if not (Mode.has_spsr m) then
        invalid_arg "Regs.write_sreg: user mode has no SPSR";
      { t with spsr = Mode_map.add m v t.spsr }

(** The 15 registers visible from [mode] — r0-r12, then that mode's SP
    and LR — as a fresh array. *)
let visible t ~mode =
  Array.append t.gp [| Mode_map.find mode t.sp; Mode_map.find mode t.lr |]

let visible_index = function R _ as r -> gp_index r | SP -> num_gp | LR -> num_gp + 1

let set_visible t ~mode a =
  if Array.length a <> num_gp + 2 then invalid_arg "Regs.set_visible: need 15 words";
  {
    t with
    gp = Array.sub a 0 num_gp;
    sp = Mode_map.add mode a.(num_gp) t.sp;
    lr = Mode_map.add mode a.(num_gp + 1) t.lr;
  }

(** All user-visible registers (r0-r12, sp_usr, lr_usr) as a list, in
    architectural order. Used when entering/leaving enclaves. *)
let user_visible t = Array.to_list (visible t ~mode:Mode.User)

let set_user_visible t values = set_visible t ~mode:Mode.User (Array.of_list values)

(** Zero r0-r12 and user SP/LR; entry state for a freshly started enclave
    thread (non-argument registers are cleared to prevent leaks). *)
let clear_user_visible t = set_user_visible t (List.init 15 (fun _ -> Word.zero))

let equal a b =
  Array.for_all2 Word.equal a.gp b.gp
  && Mode_map.equal Word.equal a.sp b.sp
  && Mode_map.equal Word.equal a.lr b.lr
  && Mode_map.equal Word.equal a.spsr b.spsr

let pp fmt t =
  Array.iteri (fun i v -> Format.fprintf fmt "r%d=%a@ " i Word.pp v) t.gp;
  Mode_map.iter
    (fun m v -> Format.fprintf fmt "sp_%s=%a@ " (Mode.show m) Word.pp v)
    t.sp
