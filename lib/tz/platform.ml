(** Static platform (SoC) configuration.

    Collects the boot-time facts the monitor relies on: how many secure
    pages exist and which physical addresses are isolated from the
    normal world (the TZASC-style filter of §3.2). *)

module Word = Komodo_machine.Word

type t = { npages : int  (** secure pages available to the monitor *) }
[@@deriving eq, show { with_path = false }]

let default = { npages = Layout.default_npages }

let make ?(npages = Layout.default_npages) () =
  if npages < 4 then invalid_arg "Platform.make: need at least 4 secure pages";
  if npages > 4096 then invalid_arg "Platform.make: secure region bounded at 16 MB";
  { npages }

(** Hardware memory filter: can normal-world software or devices access
    physical address [pa]? Secure pages and the monitor image are
    blocked; everything else (OS RAM) is fair game. *)
let normal_world_accessible t pa =
  (not (Layout.in_secure_region ~npages:t.npages pa))
  && not (Layout.in_monitor_image pa)

let is_valid_insecure t pa = Layout.is_valid_insecure ~npages:t.npages pa
let page_base (_ : t) n = Layout.page_base n
let page_of_pa t pa = Layout.page_of_pa ~npages:t.npages pa

let valid_page t n = n >= 0 && n < t.npages
