(** Storage fault campaigns over the sealed-storage vault.

    Each trial boots the platform, loads the vault enclave, and runs
    a seeded sequence of vault operations (update / seal / probe)
    interleaved with storage faults drawn from three classes:

    - {b tamper}: bit flips, block swaps (reordering), truncation,
      and full wipes of the OS's block device;
    - {b replay}: rollback of the whole sealed blob to a stale
      generation, and partial (torn) rollbacks of single blocks;
    - {b crash}: OS crash-reboots (disk and enclave survive) and full
      platform reboots (only the disk and the trusted NV counter
      survive), including back-to-back crash storms.

    After {e every} injected fault the driver presents the disk's
    contents to the vault and judges the verdict against
    {!Komodo_spec.Sealspec} — the theorem that sealed data unseals
    only as the latest genuine blob under the live NV counter, stale
    replays are reported stale, and everything else is reported
    tampered. Any mismatch is a violation; violations shrink greedily
    and serialise to JSONL replay traces, exactly like {!Drive}. *)

module Vault = Komodo_user.Vault

type storage_class = S_tamper | S_replay | S_crash

val class_name : storage_class -> string
val all_classes : storage_class list
val class_of_string : string -> storage_class option

val vault_in : Komodo_machine.Word.t
(** Physical base of the OS->vault input window. *)

val vault_out : Komodo_machine.Word.t
(** Physical base of the vault->OS output window. *)

val boot_vault :
  seed:int -> npages:int -> bug:Komodo_core.Bugs.t option -> Komodo_os.Os.t * int
(** Boot the platform, load the vault enclave, run its init command;
    returns the OS and the vault's thread page. [bug] is armed in the
    vault executor from boot and in the monitor once the vault is up.
    Two calls with the same arguments give equal worlds, so a trial
    reboots into the world it first booted. Raises [Failure] on
    setup errors (harness bugs, not theorem violations). Exposed for
    the bench harness and tests. *)

type sop =
  | V_update of { index : int; value : int }
  | V_seal
  | V_probe
  | A_tamper of { block : int; byte : int; bit : int }
  | A_rollback of { block : int; depth : int }
  | A_rollback_blob of { depth : int }
  | A_swap of { a : int; b : int }
  | A_truncate of { keep : int }
  | A_wipe
  | V_crash_os of { seed : int }
  | V_reboot

val pp_sop : sop -> string

type violation = { index : int; sop : sop; reason : string }

val pp_violation : violation -> string

type stats = {
  sops_run : int;
  probes : int;  (** unseal checks performed *)
  detected : int;  (** correctly refused (tampered or stale) *)
  accepted : int;  (** correctly accepted *)
}

val gen_sops : classes:storage_class list -> seed:int -> n:int -> sop list

(** {2 The campaign driver}

    Meets [Komodo_campaign.Campaign.DRIVER]. *)

val kind : string
(** ["vault"]. *)

type config = {
  npages : int;  (** secure pages per trial world *)
  ops_per_trial : int;  (** vault ops before storage-fault decoration *)
  bug : Komodo_core.Bugs.t option;  (** the armed seeded bug (self-test) *)
  classes : storage_class list;  (** the armed storage fault classes *)
}

val default : config
(** 48 pages, 24 ops, every class, no bug. *)

val layers : Komodo_core.Bugs.layer list
(** Monitor and vault enclave. *)

val validate : config -> (unit, string) result
(** At least the pages the vault image needs
    ({!Komodo_os.Image.pages_needed}), a non-negative op count, and a
    bug of one of {!layers}. *)

val replay : config -> seed:int -> sop list -> (stats, violation) result
(** Boot trial [seed]'s world and run [sops]: deterministic, it
    rebuilds the whole world each call. *)

type op = sop
type failure = violation

type trial = {
  t_run : (stats, violation) result;
  t_classes : (string * int) list;
      (** sops per storage class (all zero on a violating trial) *)
}

val run_trial : config -> seed:int -> trial
val failed : trial -> bool

val shrink : config -> seed:int -> (sop list * violation) option
(** [None] if the trial does not violate when re-run from its seed. *)

val counters : trial -> (string * int) list
(** ops, probes, detected, accepted, then ops per storage class. *)

type outcome = {
  trials_run : int;
  total_sops : int;
  total_probes : int;
  total_detected : int;
  total_accepted : int;
  violation : (int * sop list * violation) option;
}

val reduce : trial list -> (int * sop list * violation) option -> outcome

val header : config -> (string * Komodo_telemetry.Json.t) list
(** Trace-header fields: ["npages"] and ["bug"]. *)

val of_header : Komodo_telemetry.Json.t -> (config, string) result
val op_to_json : sop -> Komodo_telemetry.Json.t

val op_of_json : config -> Komodo_telemetry.Json.t -> (sop, string) result
(** Block, byte and bit coordinates must lie inside the store, and an
    update's index inside the vault state. *)
