(** The ARMv7 register file with banking.

    Core registers R0-R12 are shared across modes; SP, LR and SPSR are
    banked according to the current mode — user-mode accesses to SP
    refer to SP_usr, monitor-mode code accesses SP_mon, and so on.
    Following the paper (§5.1), all banked registers are modelled except
    the FIQ-only banks of R8-R12, which Komodo never needs. The file is
    immutable; writes return a new file. *)

type reg =
  | R of int  (** general-purpose R0..R12 *)
  | SP  (** stack pointer, banked by mode *)
  | LR  (** link register, banked by mode *)

val equal_reg : reg -> reg -> bool
val compare_reg : reg -> reg -> int
val pp_reg : Format.formatter -> reg -> unit
val show_reg : reg -> string

(** Special (banked/status) registers addressable via MRS/MSR-style
    access, independent of the current mode. *)
type sreg =
  | SP_of of Mode.t
  | LR_of of Mode.t
  | SPSR_of of Mode.t  (** invalid for {!Mode.User} *)

val equal_sreg : sreg -> sreg -> bool
val compare_sreg : sreg -> sreg -> int
val pp_sreg : Format.formatter -> sreg -> unit
val show_sreg : sreg -> string

type t

val num_gp : int
(** Number of shared general-purpose registers (13: r0-r12). *)

val zeroed : t
(** All registers, in every bank, zero. *)

val read : t -> mode:Mode.t -> reg -> Word.t
(** [read t ~mode r] reads [r] as seen from [mode].
    @raise Invalid_argument for general registers outside r0-r12. *)

val write : t -> mode:Mode.t -> reg -> Word.t -> t

val read_sreg : t -> sreg -> Word.t
(** Banked access by explicit mode — the path the monitor uses to save
    and restore other modes' registers.
    @raise Invalid_argument for [SPSR_of User]. *)

val write_sreg : t -> sreg -> Word.t -> t

val visible : t -> mode:Mode.t -> Word.t array
(** The 15 registers visible from [mode] (r0-r12, that mode's SP and
    LR) as a fresh array, indexed by {!visible_index}. *)

val visible_index : reg -> int
(** @raise Invalid_argument for general registers outside r0-r12. *)

val set_visible : t -> mode:Mode.t -> Word.t array -> t
(** Write back a {!visible} array (copied, not retained).
    @raise Invalid_argument unless given exactly 15 words. *)

val user_visible : t -> Word.t list
(** The 15 user-visible registers (r0-r12, SP_usr, LR_usr) in
    architectural order — the state saved/restored around enclave
    execution. *)

val set_user_visible : t -> Word.t list -> t
(** Replace every user-visible register.
    @raise Invalid_argument unless given exactly 15 words. *)

val clear_user_visible : t -> t
(** Zero r0-r12 and user SP/LR: fresh-entry state for an enclave thread
    (non-argument registers are cleared to prevent leaks). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
