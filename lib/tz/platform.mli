(** Static platform (SoC) configuration.

    The boot-time facts the monitor relies on: how many secure pages
    exist and which physical addresses the TZASC-style filter (§3.2)
    isolates from the normal world. *)

module Word = Komodo_machine.Word

type t = { npages : int  (** secure pages available to the monitor *) }

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string

val default : t

val make : ?npages:int -> unit -> t
(** @raise Invalid_argument outside 4..4096 pages. *)

val normal_world_accessible : t -> Word.t -> bool
(** The hardware memory filter: secure pages and the monitor image are
    blocked; OS RAM is fair game. *)

val is_valid_insecure : t -> Word.t -> bool
(** Valid insecure memory for OS/enclave sharing — excluding the
    monitor's own image, the subtlety of §9.1. *)

val page_base : t -> int -> Word.t
val page_of_pa : t -> Word.t -> int option
val valid_page : t -> int -> bool
