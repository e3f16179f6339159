(* Storage fault campaigns over the sealed-storage vault (see the
   interface for the big picture).

   The driver plays both sides, like [Drive]: as the adversarial OS
   it owns a [Blockstore] and corrupts / rolls back / reorders /
   truncates / wipes it, crashes the OS, and reboots the whole
   platform; as the trusted judge it holds the ground truth the
   theorem quantifies over — the genuine seal history and the
   monotonic NV counter (the RPMB-style hardware §9 assumes) — and
   after {e every} injected storage fault it presents the disk's
   current contents to the vault and compares the verdict against
   {!Sealspec.classify}. Any mismatch, in either direction, ends the
   trial as a violation. *)

module Word = Komodo_machine.Word
module Sha256 = Komodo_crypto.Sha256
module Errors = Komodo_core.Errors
module Bugs = Komodo_core.Bugs
module Monitor = Komodo_core.Monitor
module Os = Komodo_os.Os
module Image = Komodo_os.Image
module Loader = Komodo_os.Loader
module Blockstore = Komodo_os.Blockstore
module Mapping = Komodo_core.Mapping
module Vault = Komodo_user.Vault
module Uprog = Komodo_user.Uprog
module Sealspec = Komodo_spec.Sealspec
module Json = Komodo_telemetry.Json

(* -- Storage fault classes ----------------------------------------------- *)

type storage_class = S_tamper | S_replay | S_crash

let class_name = function
  | S_tamper -> "tamper"
  | S_replay -> "replay"
  | S_crash -> "crash"

let all_classes = [ S_tamper; S_replay; S_crash ]

let class_of_string s =
  List.find_opt (fun c -> String.equal (class_name c) s) all_classes

(* -- Campaign operations -------------------------------------------------- *)

type sop =
  | V_update of { index : int; value : int }  (** mutate the secret state *)
  | V_seal  (** seal under NV+1 and persist the blob *)
  | V_probe  (** present the disk to the vault, no fault injected *)
  | A_tamper of { block : int; byte : int; bit : int }
  | A_rollback of { block : int; depth : int }  (** partial (torn) rollback *)
  | A_rollback_blob of { depth : int }  (** consistent whole-blob rollback *)
  | A_swap of { a : int; b : int }
  | A_truncate of { keep : int }
  | A_wipe
  | V_crash_os of { seed : int }  (** OS crash: disk and enclave survive *)
  | V_reboot  (** full platform reboot: only disk and NV survive *)

let pp_sop = function
  | V_update { index; value } -> Printf.sprintf "update(state[%d] := %d)" index value
  | V_seal -> "seal"
  | V_probe -> "probe"
  | A_tamper { block; byte; bit } ->
      Printf.sprintf "tamper(block %d, byte %d, bit %d)" block byte bit
  | A_rollback { block; depth } ->
      Printf.sprintf "rollback(block %d, depth %d)" block depth
  | A_rollback_blob { depth } -> Printf.sprintf "rollback_blob(depth %d)" depth
  | A_swap { a; b } -> Printf.sprintf "swap(%d, %d)" a b
  | A_truncate { keep } -> Printf.sprintf "truncate(keep %d)" keep
  | A_wipe -> "wipe"
  | V_crash_os { seed } -> Printf.sprintf "crash_os(seed=%d)" seed
  | V_reboot -> "reboot"

(** Does this operation disturb storage or platform state (and so
    mandate an immediate unseal check)? *)
let is_fault = function
  | V_update _ | V_seal | V_probe -> false
  | A_tamper _ | A_rollback _ | A_rollback_blob _ | A_swap _ | A_truncate _
  | A_wipe | V_crash_os _ | V_reboot ->
      true

type violation = { index : int; sop : sop; reason : string }

let pp_violation v =
  Printf.sprintf "sop %d: %s\n  %s" v.index (pp_sop v.sop) v.reason

(* -- The world ------------------------------------------------------------ *)

(* Store geometry: small blocks so a sealed blob (92 bytes + length
   prefix = 96) spans three of them — partial rollbacks, swaps inside
   the blob, and truncations all hit distinct failure shapes. *)
let store_nblocks = 8
let store_block_size = 32
let blob_at = 0

let vault_out = Os.shared_base
let vault_in = Word.add Os.shared_base (Word.of_int 0x1000)

let vault_image =
  let zero_page = String.make 4096 '\000' in
  let img = Image.empty ~name:"vault" in
  let img =
    Image.add_blob img ~va:Vault.code_va ~w:false ~x:true
      (Uprog.to_page_images (Uprog.native_words ~id:Vault.native_id))
  in
  let img =
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va:Vault.state_va ~w:true ~x:false)
      ~contents:zero_page
  in
  let img =
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:Vault.input_va ~w:false ~x:false)
      ~target:vault_in
  in
  let img =
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:Vault.output_va ~w:true ~x:false)
      ~target:vault_out
  in
  Image.add_thread img ~entry:Vault.code_va

(** Boot the platform and bring up an initialised vault, then arm [bug]
    in the monitor (the vault executor has it from boot). Raises
    [Failure] on setup errors — those are harness bugs, not theorem
    violations. *)
let boot_vault ~seed ~npages ~bug =
  let os = Os.boot ~seed ~npages ~exec:(Vault.executor ?bug ()) () in
  let os, h =
    match Loader.load os vault_image with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "vault load: %a" Loader.pp_error e)
  in
  let thread = List.hd h.Loader.threads in
  let os, err, ret =
    Os.enter os ~thread ~args:(Word.of_int Vault.cmd_init, Word.zero, Word.zero)
  in
  if not (Errors.is_success err) || not (Word.equal ret Word.zero) then
    failwith
      (Format.asprintf "vault init: %a (exit %d)" Errors.pp err (Word.to_int ret));
  ({ os with Os.mon = { os.Os.mon with Monitor.bug } }, thread)

type config = {
  npages : int;
  ops_per_trial : int;
  bug : Bugs.t option;
  classes : storage_class list;
}

let default = { npages = 48; ops_per_trial = 24; bug = None; classes = all_classes }

let zero_state = String.make Vault.state_bytes '\x00'

type wstate = {
  os : Os.t;
  thread : int;
  store : Blockstore.t;
  nv : int;  (** the trusted monotonic counter *)
  genuine : Sealspec.genuine list;  (** newest first *)
  states : (int * string) list;  (** epoch -> sealed state bytes *)
  mirror : string;  (** the driver's copy of the vault's live state *)
}

type probe_stats = {
  mutable probes : int;
  mutable detected : int;  (** correctly refused (tampered or stale) *)
  mutable accepted : int;  (** correctly accepted *)
}

(* Pad or clip whatever the disk returned to the vault's fixed blob
   size: the enclave always reads exactly [blob_words] words. *)
let fit blob =
  let n = Vault.blob_bytes in
  if String.length blob >= n then String.sub blob 0 n
  else blob ^ String.make (n - String.length blob) '\x00'

let enter ws ~cmd ~a1 =
  Os.enter ws.os ~thread:ws.thread
    ~args:(Word.of_int cmd, Word.of_int a1, Word.zero)

(** Present the disk's current contents to the vault and judge the
    verdict against the spec. *)
let probe st ws i sop : (wstate, violation) result =
  let fail reason = Error { index = i; sop; reason } in
  let present = fit (Blockstore.read_blob ws.store ~at:blob_at) in
  let ws = { ws with os = Os.write_bytes ws.os vault_in present } in
  let os, err, ret = enter ws ~cmd:Vault.cmd_unseal ~a1:ws.nv in
  if not (Errors.is_success err) then
    fail (Format.asprintf "unseal Enter refused: %a" Errors.pp err)
  else begin
    let verdict = Word.to_int ret in
    let ws = { ws with os } in
    let expectation =
      Sealspec.classify ~genuine:ws.genuine ~nv:ws.nv ~blob:present
    in
    st.probes <- st.probes + 1;
    (* On a claimed accept of the expected blob, also audit the
       restored state through the vault's published digest. *)
    let ws, digest =
      match (expectation, verdict) with
      | Sealspec.Must_accept _, v when v = Vault.verdict_accept ->
          let os, err, _ = enter ws ~cmd:Vault.cmd_digest ~a1:0 in
          if not (Errors.is_success err) then (ws, None)
          else ({ ws with os }, Some (Os.read_bytes os vault_out 32))
      | _ -> (ws, None)
    in
    match Sealspec.judge expectation ~verdict ~digest with
    | Some reason ->
        fail
          (Printf.sprintf "sealed-storage theorem: %s (spec: %s, vault: %s)"
             reason
             (Sealspec.pp_expectation expectation)
             (Sealspec.verdict_name verdict))
    | None -> (
        st.detected <-
          (st.detected
          + if verdict <> Vault.verdict_accept then 1 else 0);
        st.accepted <-
          (st.accepted + if verdict = Vault.verdict_accept then 1 else 0);
        match expectation with
        | Sealspec.Must_accept g ->
            (* The vault reloaded the sealed state; track it. *)
            let mirror =
              match List.assoc_opt g.Sealspec.g_epoch ws.states with
              | Some s -> s
              | None -> ws.mirror
            in
            Ok { ws with mirror }
        | _ -> Ok ws)
  end

(* Which blocks the sealed blob occupies (for consistent whole-blob
   rollback). *)
let blob_blocks =
  let packed = 4 + Vault.blob_bytes in
  (packed + store_block_size - 1) / store_block_size

let step c ~seed st ws i sop : (wstate, violation) result =
  let fail reason = Error { index = i; sop; reason } in
  let after ws = if is_fault sop then probe st ws i sop else Ok ws in
  match sop with
  | V_update { index; value } ->
      let os, err, ret =
        Os.enter ws.os ~thread:ws.thread
          ~args:
            (Word.of_int Vault.cmd_update, Word.of_int index, Word.of_int value)
      in
      if not (Errors.is_success err) then
        fail (Format.asprintf "update Enter refused: %a" Errors.pp err)
      else if not (Word.equal ret Word.zero) then
        fail (Printf.sprintf "update refused (exit %d)" (Word.to_int ret))
      else
        let mirror =
          String.mapi
            (fun j c ->
              if j / 4 = index then
                (Word.to_bytes_be (Word.of_int value)).[j mod 4]
              else c)
            ws.mirror
        in
        Ok { ws with os; mirror }
  | V_seal ->
      let os, err, ret = enter ws ~cmd:Vault.cmd_seal ~a1:ws.nv in
      if not (Errors.is_success err) then
        fail (Format.asprintf "seal Enter refused: %a" Errors.pp err)
      else if not (Word.equal ret Word.zero) then
        fail (Printf.sprintf "seal refused (exit %d)" (Word.to_int ret))
      else begin
        let blob = Os.read_bytes os vault_out Vault.blob_bytes in
        ignore (Blockstore.write_blob ws.store ~at:blob_at blob);
        let epoch = ws.nv + 1 in
        let g =
          {
            Sealspec.g_epoch = epoch;
            g_blob = blob;
            g_digest = Sha256.digest ws.mirror;
          }
        in
        Ok
          {
            ws with
            os;
            nv = epoch;
            genuine = g :: ws.genuine;
            states = (epoch, ws.mirror) :: ws.states;
          }
      end
  | V_probe -> probe st ws i sop
  | A_tamper { block; byte; bit } ->
      Blockstore.tamper ws.store ~block ~byte ~bit;
      after ws
  | A_rollback { block; depth } ->
      Blockstore.rollback ws.store ~block ~depth;
      after ws
  | A_rollback_blob { depth } ->
      for b = blob_at to blob_at + blob_blocks - 1 do
        Blockstore.rollback ws.store ~block:b ~depth
      done;
      after ws
  | A_swap { a; b } ->
      Blockstore.swap ws.store a b;
      after ws
  | A_truncate { keep } ->
      Blockstore.truncate ws.store ~keep;
      after ws
  | A_wipe ->
      Blockstore.wipe ws.store;
      after ws
  | V_crash_os { seed } ->
      after { ws with os = Os.crash_reboot ~seed ws.os }
  | V_reboot ->
      (* Volatile state dies; the disk and the NV counter are the
         only survivors. Same boot seed: same boot secret, so the
         same measurement derives the same seal key. *)
      let os, thread = boot_vault ~seed ~npages:c.npages ~bug:c.bug in
      after { ws with os; thread; mirror = zero_state }

type stats = {
  sops_run : int;
  probes : int;
  detected : int;
  accepted : int;
}

let replay c ~seed sops : (stats, violation) result =
  let os, thread = boot_vault ~seed ~npages:c.npages ~bug:c.bug in
  let ws0 =
    {
      os;
      thread;
      store = Blockstore.create ~nblocks:store_nblocks ~block_size:store_block_size ();
      nv = 0;
      genuine = [];
      states = [];
      mirror = zero_state;
    }
  in
  let st = { probes = 0; detected = 0; accepted = 0 } in
  let rec go ws i = function
    | [] ->
        Ok
          {
            sops_run = i;
            probes = st.probes;
            detected = st.detected;
            accepted = st.accepted;
          }
    | sop :: rest -> (
        match step c ~seed st ws i sop with
        | Error v -> Error v
        | Ok ws' -> go ws' (i + 1) rest)
  in
  go ws0 0 sops

(* -- Campaign generation -------------------------------------------------- *)

let gen_sops ~classes ~seed ~n =
  let has c = List.mem c classes in
  let rnd = Komodo_rand.Lcg.(below (make ((seed lxor 0x5ea1ed) land 0x3fffffff))) in
  let faults_for () =
    let fs = ref [] in
    let add f = fs := f :: !fs in
    if has S_tamper then begin
      if rnd 3 = 0 then
        add
          (A_tamper
             { block = rnd store_nblocks; byte = rnd store_block_size; bit = rnd 8 });
      if rnd 6 = 0 then add (A_swap { a = rnd store_nblocks; b = rnd store_nblocks });
      if rnd 8 = 0 then add (A_truncate { keep = rnd (blob_blocks + 1) });
      if rnd 14 = 0 then add A_wipe
    end;
    if has S_replay then begin
      if rnd 3 = 0 then add (A_rollback_blob { depth = 1 + rnd 3 });
      if rnd 5 = 0 then
        add (A_rollback { block = rnd store_nblocks; depth = 1 + rnd 3 })
    end;
    if has S_crash then begin
      if rnd 4 = 0 then add (V_crash_os { seed = rnd 1_000_000 });
      if rnd 6 = 0 then add V_reboot;
      if rnd 10 = 0 then begin
        (* A crash storm: reboots and OS crashes back to back, the
           recovery path exercised repeatedly in one trial. *)
        add (V_crash_os { seed = rnd 1_000_000 });
        add V_reboot;
        add (V_crash_os { seed = rnd 1_000_000 })
      end
    end;
    List.rev !fs
  in
  List.concat
    (List.init n (fun _ ->
         let base =
           match rnd 6 with
           | 0 | 1 ->
               [ V_update { index = rnd Vault.state_words; value = rnd 0xffffff } ]
           | 2 | 3 -> [ V_seal ]
           | 4 -> [ V_update { index = rnd Vault.state_words; value = rnd 0xffffff }; V_seal ]
           | _ -> [ V_probe ]
         in
         base @ faults_for ()))

(* -- The campaign driver ---------------------------------------------------- *)

let kind = "vault"

let layers = Bugs.[ Monitor; Vault_enclave ]

(* The world is the vault image loaded on a booted platform. *)
let validate c =
  if c.ops_per_trial < 0 then
    Error (Printf.sprintf "ops must be non-negative, got %d" c.ops_per_trial)
  else
    Result.bind
      (Komodo_spec.Diff.check_npages ~min:(Image.pages_needed vault_image)
         ~why:"the vault image's pages" c.npages)
      (fun () -> Bugs.armable ~kind layers c.bug)

type op = sop
type failure = violation

type trial = { t_run : (stats, violation) result; t_classes : (string * int) list }

let class_of_sop = function
  | A_tamper _ | A_swap _ | A_truncate _ | A_wipe -> Some S_tamper
  | A_rollback _ | A_rollback_blob _ -> Some S_replay
  | V_crash_os _ | V_reboot -> Some S_crash
  | V_update _ | V_seal | V_probe -> None

let class_counts sops =
  List.map
    (fun c ->
      (class_name c, List.length (List.filter (fun s -> class_of_sop s = Some c) sops)))
    all_classes

let run_trial c ~seed =
  let sops = gen_sops ~classes:c.classes ~seed ~n:c.ops_per_trial in
  let t_run = replay c ~seed sops in
  { t_run; t_classes = class_counts (if Result.is_ok t_run then sops else []) }

let failed t = Result.is_error t.t_run

(* A violating trial contributes only its pre-violation sop count, as
   [Drive] does. *)
let stats t =
  match t.t_run with
  | Ok st -> st
  | Error v -> { sops_run = v.index; probes = 0; detected = 0; accepted = 0 }

let shrink c ~seed =
  Komodo_spec.Diff.shrink_seq ~run:(replay c ~seed)
    ~index:(fun (v : violation) -> v.index)
    (gen_sops ~classes:c.classes ~seed ~n:c.ops_per_trial)

let counters t =
  let s = stats t in
  [ ("ops", s.sops_run); ("probes", s.probes); ("detected", s.detected); ("accepted", s.accepted) ]
  @ t.t_classes

type outcome = {
  trials_run : int;
  total_sops : int;
  total_probes : int;
  total_detected : int;
  total_accepted : int;
  violation : (int * sop list * violation) option;
}

let reduce trials violation =
  let sum f = List.fold_left (fun a t -> a + f (stats t)) 0 trials in
  {
    trials_run = List.length trials;
    total_sops = sum (fun s -> s.sops_run);
    total_probes = sum (fun s -> s.probes);
    total_detected = sum (fun s -> s.detected);
    total_accepted = sum (fun s -> s.accepted);
    violation;
  }

(* -- Traces --------------------------------------------------------------- *)

let ( let* ) = Result.bind

let header c = [ ("npages", Json.Int c.npages); ("bug", Json.name Bugs.name c.bug) ]

let of_header h =
  let* npages = Json.int_field "npages" h in
  let* bug = Json.name_field "bug" Bugs.of_string h in
  Ok { default with npages; bug }

let op_to_json =
  let obj k fields =
    Json.Obj [ (k, Json.Obj (List.map (fun (f, n) -> (f, Json.Int n)) fields)) ]
  in
  function
  | V_update { index; value } -> obj "update" [ ("index", index); ("value", value) ]
  | V_seal -> Json.Str "seal"
  | V_probe -> Json.Str "probe"
  | A_tamper { block; byte; bit } ->
      obj "tamper" [ ("block", block); ("byte", byte); ("bit", bit) ]
  | A_rollback { block; depth } -> obj "rollback" [ ("block", block); ("depth", depth) ]
  | A_rollback_blob { depth } -> obj "rollback_blob" [ ("depth", depth) ]
  | A_swap { a; b } -> obj "swap" [ ("a", a); ("b", b) ]
  | A_truncate { keep } -> obj "truncate" [ ("keep", keep) ]
  | A_wipe -> Json.Str "wipe"
  | V_crash_os { seed } -> Json.Obj [ ("crash", Json.Int seed) ]
  | V_reboot -> Json.Str "reboot"

(* Store coordinates must name a real block, byte and bit (the block
   store treats anything else as a harness bug and raises), and an
   update a real state word (the vault refuses anything else, which
   would read as a violation). *)
let ranged name hi j =
  let* n = Json.int_field name j in
  if n >= 0 && n < hi then Ok n
  else Error (Printf.sprintf "%s %d out of range [0, %d)" name n hi)

let op_of_json _ j =
  match j with
  | Json.Str "seal" -> Ok V_seal
  | Json.Str "probe" -> Ok V_probe
  | Json.Str "wipe" -> Ok A_wipe
  | Json.Str "reboot" -> Ok V_reboot
  | Json.Obj [ (k, arg) ] -> (
      match k with
      | "update" ->
          let* index = ranged "index" Vault.state_words arg in
          let* value = Json.int_field "value" arg in
          Ok (V_update { index; value })
      | "tamper" ->
          let* block = ranged "block" store_nblocks arg in
          let* byte = ranged "byte" store_block_size arg in
          let* bit = ranged "bit" 8 arg in
          Ok (A_tamper { block; byte; bit })
      | "rollback" ->
          let* block = ranged "block" store_nblocks arg in
          let* depth = Json.int_field "depth" arg in
          Ok (A_rollback { block; depth })
      | "rollback_blob" ->
          Result.map (fun depth -> A_rollback_blob { depth }) (Json.int_field "depth" arg)
      | "swap" ->
          let* a = ranged "a" store_nblocks arg in
          let* b = ranged "b" store_nblocks arg in
          Ok (A_swap { a; b })
      | "truncate" -> Result.map (fun keep -> A_truncate { keep }) (Json.int_field "keep" arg)
      | "crash" -> (
          match arg with
          | Json.Int seed -> Ok (V_crash_os { seed })
          | _ -> Error "missing/ill-typed crash seed")
      | _ -> Error ("unknown vault op " ^ k))
  | _ -> Error "bad vault op"
