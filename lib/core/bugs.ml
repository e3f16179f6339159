(** The seeded bugs and their layers: the one table every campaign,
    hook, flag and trace header reads. *)

type layer = Monitor | Spec | Stepper | Vault_enclave

type t =
  | Partial_map_secure
  | Partial_remove
  | No_alias_check
  | No_monitor_image_check
  | Drop_refcount
  | Missing_page_lock
  | Lock_inversion
  | Accept_tampered
  | Accept_stale

let table =
  [
    (Partial_map_secure, "partial_map_secure", Monitor);
    (Partial_remove, "partial_remove", Monitor);
    (No_alias_check, "no-alias-check", Spec);
    (No_monitor_image_check, "no-monitor-image-check", Spec);
    (Drop_refcount, "drop-refcount", Spec);
    (Missing_page_lock, "missing_page_lock", Stepper);
    (Lock_inversion, "lock_inversion", Stepper);
    (Accept_tampered, "accept_tampered", Vault_enclave);
    (Accept_stale, "accept_stale", Vault_enclave);
  ]

let all = List.map (fun (b, _, _) -> b) table
let entry b = List.find (fun (b', _, _) -> b' = b) table
let name b = let _, n, _ = entry b in n
let layer b = let _, _, l = entry b in l

let of_string s =
  List.find_map (fun (b, n, _) -> if String.equal n s then Some b else None) table

let layer_name = function
  | Monitor -> "monitor"
  | Spec -> "spec"
  | Stepper -> "stepper"
  | Vault_enclave -> "vault enclave"

let armable ~kind layers = function
  | Some b when not (List.mem (layer b) layers) ->
      Error
        (Printf.sprintf "bug %s arms the %s layer, which %s does not run (it runs: %s)"
           (name b) (layer_name (layer b)) kind
           (String.concat ", " (List.map layer_name layers)))
  | _ -> Ok ()
