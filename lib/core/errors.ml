(** Monitor call result codes.

    Mirrors the error set of the public Komodo sources. Every SMC and
    SVC returns one of these in r0; a few calls also return a value in
    r1 (§5.2's register discipline). *)

module Word = Komodo_machine.Word

type t =
  | Success
  | Invalid_pageno  (** page number out of range *)
  | Page_in_use  (** target page is not free *)
  | Invalid_addrspace  (** page is not an address space in a usable state *)
  | Already_final  (** construction call on a finalised enclave *)
  | Not_final  (** execution attempted before [Finalise] *)
  | Invalid_mapping  (** malformed mapping word / missing L2 table *)
  | Addr_in_use  (** virtual address already mapped *)
  | Not_stopped  (** deallocation before [Stop] *)
  | Interrupted  (** enclave execution suspended by an interrupt *)
  | Fault  (** enclave faulted (only the exception type is released) *)
  | Already_entered  (** Enter on a suspended thread *)
  | Not_entered  (** Resume on a thread with no saved context *)
  | Invalid_thread  (** page is not a thread of a final enclave *)
  | Pages_exhausted  (** no secure page available *)
  | In_use  (** refcount prevents removal *)
  | Invalid_arg  (** malformed argument (alignment, insecure range, ...) *)
  | Entropy_exhausted  (** the hardware randomness source ran dry *)
[@@deriving eq, enum]

(* Constructor order is word order, so the enum plugin's numbering is
   the encoding; the names come from the table. *)
let to_word e = Word.of_int (to_enum e)
let of_word w = of_enum (Word.to_int w)
let show e = Abi.err_name (to_enum e)
let pp fmt e = Format.pp_print_string fmt (show e)

let is_success = function Success -> true | _ -> false
