(** The seeded bugs: every deliberately re-armable defect the campaigns
    must catch, in one table, as {!Abi} holds Table 1.

    Each bug belongs to one layer, and exactly one hook in that layer
    reacts to it: the monitor's SMC handlers ([Monitor.t.bug]), the
    abstract spec's step ([Aspec.step_smc ?mutate]), the multi-core
    stepper's lock footprints ([Smp.run ?bug]) and the vault enclave's
    unseal checks ([Vault.executor ?bug]). A campaign hands its one
    armed bug to every layer it runs and accepts exactly those layers'
    bugs ({!armable}), on the command line and in a trace header
    alike. *)

type layer =
  | Monitor  (** the SMC handlers *)
  | Spec  (** the abstract spec the lockstep checks against *)
  | Stepper  (** the multi-core stepper's per-page locking *)
  | Vault_enclave  (** the sealed-storage enclave's unseal path *)

type t =
  | Partial_map_secure  (** MapSecure fills the data page, then fails *)
  | Partial_remove  (** Remove frees the page, then fails its refcount check *)
  | No_alias_check  (** the spec accepts [InitAddrspace(p, p)] (§9.1) *)
  | No_monitor_image_check  (** the spec maps the monitor's own image (§9.1) *)
  | Drop_refcount  (** the spec forgets to count threads against the addrspace *)
  | Missing_page_lock  (** MapSecure's footprint drops the data-page lock *)
  | Lock_inversion  (** Remove locks its footprint in descending page order *)
  | Accept_tampered  (** the vault ignores a GCM authentication failure *)
  | Accept_stale  (** the vault skips the epoch freshness check *)

val all : t list
(** Every bug, in table order. *)

val name : t -> string
(** The bug's flag and trace-header name, e.g. ["partial_remove"],
    ["no-alias-check"]. *)

val of_string : string -> t option

val layer : t -> layer
val layer_name : layer -> string

val armable : kind:string -> layer list -> t option -> (unit, string) result
(** [Ok ()] for no bug or a bug of one of [layers] (the layers campaign
    [kind] runs); otherwise an error naming the bug, its layer and
    [kind]'s layers. *)
