(** Enclave images: what the OS loads.

    An image lists the secure pages (virtual address, permissions,
    initial contents), the insecure shared mappings, and the threads
    (entry points) of an enclave — everything the measurement covers,
    plus the unmeasured insecure mappings. The loader replays the image
    through the monitor API; {!expected_measurement} predicts the
    measurement the monitor will compute, which is how a remote party
    (or test) decides what to trust. *)

module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module Mapping = Komodo_core.Mapping
module Measure = Komodo_core.Measure
module Sha256 = Komodo_crypto.Sha256

type secure_page = { mapping : Mapping.t; contents : string (* 4096 bytes *) }
type insecure_mapping = { mapping : Mapping.t; target : Word.t (* physical *) }

type t = {
  name : string;
  secure_pages : secure_page list;
  insecure_mappings : insecure_mapping list;
  threads : Word.t list;  (** entry points *)
  spares : int;  (** spare pages to allocate after finalisation *)
}

let empty ~name =
  { name; secure_pages = []; insecure_mappings = []; threads = []; spares = 0 }

let add_secure_page img ~mapping ~contents =
  if String.length contents <> Ptable.page_size then
    invalid_arg "Image.add_secure_page: contents must be one page";
  { img with secure_pages = img.secure_pages @ [ { mapping; contents } ] }

(** Add a multi-page blob starting at [va] (e.g. an assembled program). *)
let add_blob img ~va ~w ~x pages =
  List.fold_left
    (fun (img, va) contents ->
      let mapping = Mapping.make ~va ~w ~x in
      ( add_secure_page img ~mapping ~contents,
        Word.add va (Word.of_int Ptable.page_size) ))
    (img, va) pages
  |> fst

let add_insecure_mapping img ~mapping ~target =
  { img with insecure_mappings = img.insecure_mappings @ [ { mapping; target } ] }

let add_thread img ~entry = { img with threads = img.threads @ [ entry ] }
let with_spares img n = { img with spares = n }

(** The notary enclave (§8.2), laid out as every caller maps it. *)
let notary ?(output = Os.shared_base) ~input_pages () =
  let module Notary = Komodo_user.Notary in
  let rw va = Mapping.make ~va ~w:true ~x:false in
  let zero_page = String.make Ptable.page_size '\000' in
  let page i = Word.of_int (i * Ptable.page_size) in
  let code =
    Komodo_user.Uprog.to_page_images (Komodo_user.Uprog.native_words ~id:Notary.native_id)
  in
  let img = add_blob (empty ~name:"notary") ~va:Notary.code_va ~w:false ~x:true code in
  let img = add_secure_page img ~mapping:(rw Notary.state_va) ~contents:zero_page in
  let img = add_secure_page img ~mapping:(rw Notary.heap_va) ~contents:zero_page in
  let img = add_insecure_mapping img ~mapping:(rw Notary.output_va) ~target:output in
  let img =
    List.fold_left
      (fun img i ->
        add_insecure_mapping img
          ~mapping:(Mapping.make ~va:(Word.add Notary.input_va (page i)) ~w:false ~x:false)
          ~target:(Word.add Os.document_base (page i)))
      img (List.init input_pages Fun.id)
  in
  add_thread img ~entry:Notary.code_va

(** The distinct first-level table slots the image's virtual addresses
    need (both secure and insecure mappings), in increasing order. *)
let l1_indices img =
  let of_mapping (m : Mapping.t) = Ptable.l1_index m.Mapping.va in
  let idxs =
    List.map (fun (p : secure_page) -> of_mapping p.mapping) img.secure_pages
    @ List.map (fun (p : insecure_mapping) -> of_mapping p.mapping) img.insecure_mappings
  in
  List.sort_uniq Int.compare idxs

(** Secure pages needed to host the enclave: address space + L1 table +
    one L2 table per slot + data pages + thread pages + spares. *)
let pages_needed img =
  2 + List.length (l1_indices img)
  + List.length img.secure_pages
  + List.length img.threads + img.spares

(** Predict the measurement the monitor will compute for this image,
    assuming the loader's call order (threads after data pages). *)
let expected_measurement img =
  let m = Measure.initial in
  let m =
    List.fold_left
      (fun m (p : secure_page) ->
        Measure.add_data_page m ~mapping:p.mapping ~contents:p.contents)
      m img.secure_pages
  in
  let m =
    List.fold_left (fun m entry -> Measure.add_thread m ~entry_point:entry) m img.threads
  in
  match Measure.digest (Measure.finalise m) with
  | Some d -> d
  | None -> assert false
