(** Typed trace events, stamped with the monitor's modelled cycle
    counter. Events carry only integers and strings (call numbers,
    error codes, page-type names) so this layer sits *below* the core
    monitor — {!Komodo_core} depends on telemetry, never the reverse. *)

type lifecycle_stage = Ls_init | Ls_finalise | Ls_enter | Ls_resume | Ls_stop | Ls_remove

val stage_name : lifecycle_stage -> string
val stage_of_name : string -> lifecycle_stage option

type t =
  | Smc_entry of { call : int; name : string; args : int list }
  | Smc_exit of { call : int; name : string; err : int; err_name : string; retval : int; cycles : int }
      (** [cycles] is the handler's cycle cost (exit stamp − entry stamp). *)
  | Svc_entry of { call : int; name : string; args : int list }
      (** [args] are the enclave's r1 and r2. *)
  | Svc_exit of { call : int; name : string; err : int; err_name : string; cycles : int }
  | Exception of { kind : string }
      (** The exception ending a burst of user execution:
          ["svc"], ["irq"], ["fiq"], or ["fault:<class>"]. *)
  | Page_transition of { page : int; from_type : string; to_type : string }
      (** A PageDB retyping (e.g. free → addrspace, datapage → free). *)
  | Enclave_lifecycle of { addrspace : int; stage : lifecycle_stage }
  | Fault_injected of { point : string; action : string }
      (** The fault injector acted: [point] names the injection point
          (["commit:smc:6"], ["insn:12"], ...), [action] the fault. *)

type stamped = { at : int; ev : t }
(** [at] is the monitor cycle counter at emission. *)

val equal : t -> t -> bool
val equal_stamped : stamped -> stamped -> bool
val kind_name : t -> string
val pp : Format.formatter -> t -> unit
val pp_stamped : Format.formatter -> stamped -> unit

(** JSON encoding: one object per event; a trace file is JSONL. The
    encoding round-trips: [of_json (to_json e) = Ok e]. *)

val to_json : stamped -> Json.t
val of_json : Json.t -> (stamped, string) result
val to_jsonl_line : stamped -> string
val of_jsonl_line : string -> (stamped, string) result

val parse_trace : string -> (stamped list, string) result
(** Parse a whole JSONL trace (blank lines skipped); the error names
    the offending line. *)
