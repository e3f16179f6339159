(** Enclave images: what the OS loads.

    An image lists the secure pages (virtual address, permissions,
    initial contents), insecure shared mappings, threads, and spare
    pages of an enclave — everything the measurement covers plus the
    unmeasured shared windows. {!expected_measurement} predicts the
    measurement the monitor will compute, which is how a verifier
    decides what to trust. *)

module Word = Komodo_machine.Word
module Mapping = Komodo_core.Mapping

type secure_page = { mapping : Mapping.t; contents : string (* 4096 bytes *) }
type insecure_mapping = { mapping : Mapping.t; target : Word.t (* physical *) }

type t = {
  name : string;
  secure_pages : secure_page list;
  insecure_mappings : insecure_mapping list;
  threads : Word.t list;  (** entry points *)
  spares : int;  (** spare pages granted after finalisation *)
}

val empty : name:string -> t

val add_secure_page : t -> mapping:Mapping.t -> contents:string -> t
(** @raise Invalid_argument unless contents are exactly one page. *)

val add_blob : t -> va:Word.t -> w:bool -> x:bool -> string list -> t
(** A multi-page blob of consecutive pages starting at [va] (e.g. an
    assembled program). *)

val add_insecure_mapping : t -> mapping:Mapping.t -> target:Word.t -> t
val add_thread : t -> entry:Word.t -> t
val with_spares : t -> int -> t

val notary : ?output:Word.t -> input_pages:int -> unit -> t
(** The notary enclave (§8.2): its native code blob, a zeroed state page
    and heap page, a writable output window onto [output] (default
    {!Os.shared_base}), [input_pages] read-only input pages from
    {!Komodo_user.Notary.input_va} onto {!Os.document_base}, and one
    thread at the code. *)

val l1_indices : t -> int list
(** The distinct first-level slots the image's addresses need. *)

val pages_needed : t -> int
(** Secure pages to host the enclave: address space + L1 table + one L2
    table per slot + data pages + threads + spares. *)

val expected_measurement : t -> string
(** The measurement the monitor will compute, assuming the loader's
    call order. *)
