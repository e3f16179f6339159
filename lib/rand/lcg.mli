(** The 30-bit linear congruential generator the op generators
    ({!Komodo_spec.Diff}, {!Komodo_fault.Drive},
    {!Komodo_fault.Vaultdrive}, {!Komodo_sec.Nonint}) and the OS's
    crash junk draw from. Each caller seeds it its own way. The
    recurrence must never change: every recorded trial and committed
    trace depends on its draws. *)

type t

val make : int -> t
(** A generator whose state is the given word, taken as is. *)

val bits : t -> int
(** Advance and return the new state,
    [(s * 1103515245 + 12345) land 0x3fffffff]. *)

val below : t -> int -> int
(** Advance; the new state mod [n], or 0 when [n <= 0]. *)
