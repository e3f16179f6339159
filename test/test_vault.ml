(* The sealed-storage vault: seal/unseal round trips, tamper and
   rollback refusal, key binding to boot secret and measurement,
   survival across OS crashes and full reboots, and the storage fault
   campaigns (clean, deterministic, and catching both re-armable
   detection-disable bugs). *)

module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module Mapping = Komodo_core.Mapping
module Errors = Komodo_core.Errors
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Uprog = Komodo_user.Uprog
module Vault = Komodo_user.Vault
module Bugs = Komodo_core.Bugs
module Sha256 = Komodo_crypto.Sha256
module Sealspec = Komodo_spec.Sealspec
module Vaultdrive = Komodo_fault.Vaultdrive
module Campaign = Komodo_campaign.Campaign.Make (Vaultdrive)

let boot ?(seed = 5) ?bug () = Vaultdrive.boot_vault ~seed ~npages:48 ~bug

let enter os thread ~cmd ~a1 =
  let os, err, ret =
    Os.enter os ~thread ~args:(Word.of_int cmd, Word.of_int a1, Word.zero)
  in
  if not (Errors.is_success err) then
    Alcotest.failf "vault enter: %s" (Errors.show err);
  (os, Word.to_int ret)

(* Update word 2, seal under NV = 0 (epoch 1), return the world and the
   emitted blob. *)
let seal_one (os, thread) =
  let os, r = enter os thread ~cmd:Vault.cmd_update ~a1:2 in
  Alcotest.(check int) "update ok" 0 r;
  let os, r = enter os thread ~cmd:Vault.cmd_seal ~a1:0 in
  Alcotest.(check int) "seal ok" 0 r;
  (os, thread, Os.read_bytes os Vaultdrive.vault_out Vault.blob_bytes)

let unseal (os, thread) ~nv blob =
  let os = Os.write_bytes os Vaultdrive.vault_in blob in
  enter os thread ~cmd:Vault.cmd_unseal ~a1:nv

(* seal_one runs `update 2 0` — index in r1, value 0 in r2 — so the
   expected state is all zeros. *)
let zero_state = String.make Vault.state_bytes '\000'

let test_roundtrip () =
  let os, thread, blob = seal_one (boot ()) in
  Alcotest.(check int) "blob sized" Vault.blob_bytes (String.length blob);
  Alcotest.(check bool) "magic leads" true
    (Word.equal (Word.of_bytes_be blob 0) Vault.blob_magic);
  let os, v = unseal (os, thread) ~nv:1 blob in
  Alcotest.(check int) "accepts its own blob" Vault.verdict_accept v;
  let os, r = enter os thread ~cmd:Vault.cmd_digest ~a1:0 in
  Alcotest.(check int) "digest ok" 0 r;
  Alcotest.(check string) "restored exactly the sealed state"
    (Sha256.to_hex (Sha256.digest zero_state))
    (Sha256.to_hex (Os.read_bytes os Vaultdrive.vault_out 32))

let test_tamper_refused () =
  let os, thread, blob = seal_one (boot ()) in
  (* Flip one bit anywhere past the epoch field: ciphertext or tag. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string blob in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      let _, v = unseal (os, thread) ~nv:1 (Bytes.to_string b) in
      Alcotest.(check int)
        (Printf.sprintf "bit flip at byte %d detected" pos)
        Vault.verdict_tampered v)
    [ 8; 40; Vault.blob_bytes - 1 ];
  (* Epoch field forgery: honest epoch word but no matching tag. *)
  let b = Bytes.of_string blob in
  Bytes.set b 7 '\x09';
  let _, v = unseal (os, thread) ~nv:9 (Bytes.to_string b) in
  Alcotest.(check int) "forged epoch detected" Vault.verdict_tampered v;
  (* Garbage of the right length. *)
  let _, v = unseal (os, thread) ~nv:1 (String.make Vault.blob_bytes 'Z') in
  Alcotest.(check int) "garbage detected" Vault.verdict_tampered v

let test_rollback_refused () =
  let os, thread, blob1 = seal_one (boot ()) in
  let os, r = enter os thread ~cmd:Vault.cmd_update ~a1:3 in
  Alcotest.(check int) "update ok" 0 r;
  let os, r = enter os thread ~cmd:Vault.cmd_seal ~a1:1 in
  Alcotest.(check int) "second seal ok" 0 r;
  let blob2 = Os.read_bytes os Vaultdrive.vault_out Vault.blob_bytes in
  (* NV is now 2: the old blob is genuine but stale, the new accepts. *)
  let os, v = unseal (os, thread) ~nv:2 blob1 in
  Alcotest.(check int) "stale blob reported stale" Vault.verdict_stale v;
  let _, v = unseal (os, thread) ~nv:2 blob2 in
  Alcotest.(check int) "latest blob accepts" Vault.verdict_accept v

let test_key_bound_to_boot_secret () =
  let _, _, blob = seal_one (boot ~seed:5 ()) in
  let other = boot ~seed:6 () in
  let _, v = unseal other ~nv:1 blob in
  Alcotest.(check int) "different boot secret cannot unseal"
    Vault.verdict_tampered v

let test_key_bound_to_measurement () =
  (* Same boot seed, different enclave measurement: the vault image
     plus one extra (zero) secure page. The derived seal key differs,
     so the blob from the canonical vault reads as tampered. *)
  let _, _, blob = seal_one (boot ~seed:5 ()) in
  let os = Os.boot ~seed:5 ~npages:48 ~exec:(Vault.executor ()) () in
  let img = Image.empty ~name:"vault-variant" in
  let img =
    Image.add_blob img ~va:Vault.code_va ~w:false ~x:true
      (Uprog.to_page_images (Uprog.native_words ~id:Vault.native_id))
  in
  let zero_page = String.make Ptable.page_size '\000' in
  let img =
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va:Vault.state_va ~w:true ~x:false)
      ~contents:zero_page
  in
  let img =
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va:(Word.of_int 0x3000) ~w:true ~x:false)
      ~contents:zero_page
  in
  let img =
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:Vault.input_va ~w:false ~x:false)
      ~target:Vaultdrive.vault_in
  in
  let img =
    Image.add_insecure_mapping img
      ~mapping:(Mapping.make ~va:Vault.output_va ~w:true ~x:false)
      ~target:Vaultdrive.vault_out
  in
  let img = Image.add_thread img ~entry:Vault.code_va in
  let os, h =
    match Loader.load os img with
    | Ok r -> r
    | Error e -> Alcotest.failf "variant load: %s" (Format.asprintf "%a" Loader.pp_error e)
  in
  let thread = List.hd h.Loader.threads in
  let os, r = enter os thread ~cmd:Vault.cmd_init ~a1:0 in
  Alcotest.(check int) "variant inits" 0 r;
  let _, v = unseal (os, thread) ~nv:1 blob in
  Alcotest.(check int) "different measurement cannot unseal"
    Vault.verdict_tampered v

let test_survives_os_crash () =
  (* An OS crash scrubs the insecure windows but not the enclave: the
     vault's live state and derived key must both survive. *)
  let os, thread, blob = seal_one (boot ()) in
  let os = Os.crash_reboot ~seed:99 os in
  let os, r = enter os thread ~cmd:Vault.cmd_digest ~a1:0 in
  Alcotest.(check int) "digest after crash ok" 0 r;
  Alcotest.(check string) "enclave state unaffected by the crash"
    (Sha256.to_hex (Sha256.digest zero_state))
    (Sha256.to_hex (Os.read_bytes os Vaultdrive.vault_out 32));
  let _, v = unseal (os, thread) ~nv:1 blob in
  Alcotest.(check int) "still unseals after the crash" Vault.verdict_accept v

let test_survives_full_reboot () =
  (* A full platform reboot with the same boot seed rebuilds the same
     boot secret; a freshly loaded vault (same measurement) re-derives
     the same seal key and accepts the pre-reboot blob at its epoch. *)
  let _, _, blob = seal_one (boot ~seed:5 ()) in
  let fresh = boot ~seed:5 () in
  let os, v = unseal fresh ~nv:1 blob in
  let os, r = enter os (snd fresh) ~cmd:Vault.cmd_digest ~a1:0 in
  Alcotest.(check int) "digest ok" 0 r;
  ignore os;
  Alcotest.(check int) "unseals after reboot" Vault.verdict_accept v

let test_bugs_disable_detection () =
  (* The re-armable bugs really disable the checks — otherwise the
     campaign self-tests below would be vacuous. *)
  let os, thread, blob = seal_one (boot ~bug:Bugs.Accept_tampered ()) in
  let b = Bytes.of_string blob in
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 1));
  let _, v = unseal (os, thread) ~nv:1 (Bytes.to_string b) in
  Alcotest.(check int) "accept_tampered swallows corruption"
    Vault.verdict_accept v;
  let w = boot ~bug:Bugs.Accept_stale () in
  let os, thread, blob1 = seal_one w in
  let os, _ = enter os thread ~cmd:Vault.cmd_seal ~a1:1 in
  let _, v = unseal (os, thread) ~nv:2 blob1 in
  Alcotest.(check int) "accept_stale swallows rollback" Vault.verdict_accept v

(* -- the storage fault campaigns ---------------------------------------- *)

let test_clean_campaign () =
  let o =
    Campaign.run ~jobs:1 Vaultdrive.default ~trials:6 ~seed:42
  in
  (match o.Vaultdrive.violation with
  | None -> ()
  | Some (tseed, _, v) ->
      Alcotest.failf "trial seed %d: %s" tseed (Vaultdrive.pp_violation v));
  Alcotest.(check int) "all trials ran" 6 o.Vaultdrive.trials_run;
  Alcotest.(check bool) "probes happened" true (o.Vaultdrive.total_probes > 50);
  Alcotest.(check bool) "corruptions detected" true
    (o.Vaultdrive.total_detected > 10);
  Alcotest.(check bool) "genuine unseals accepted" true
    (o.Vaultdrive.total_accepted > 0)

let test_campaign_deterministic () =
  let run jobs =
    Campaign.run ~jobs Vaultdrive.default ~trials:5 ~seed:7
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check bool) "identical outcome at -j 1 vs -j 2" true (a = b)

let catch_bug bug =
  match
    (Campaign.run ~jobs:1 { Vaultdrive.default with bug = Some bug } ~trials:20
       ~seed:42)
      .Vaultdrive.violation
  with
  | None -> Alcotest.failf "bug %s survived the campaign" (Bugs.name bug)
  | Some (_, shrunk, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 4 sops (got %d)" (List.length shrunk))
        true
        (List.length shrunk <= 4);
      Alcotest.(check bool) "violation names a reason" true
        (String.length v.Vaultdrive.reason > 0)

let test_catch_accept_tampered () = catch_bug Bugs.Accept_tampered
let test_catch_accept_stale () = catch_bug Bugs.Accept_stale

let test_trace_roundtrip () =
  let sops =
    Vaultdrive.gen_sops ~classes:Vaultdrive.all_classes ~seed:11 ~n:30
  in
  let lines = Campaign.to_trace ~seed:11 Vaultdrive.default sops in
  match Campaign.of_trace lines with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok (seed, cfg, sops') ->
      Alcotest.(check int) "seed" 11 seed;
      Alcotest.(check int) "npages" 48 cfg.Vaultdrive.npages;
      Alcotest.(check bool) "no bug" true (cfg.Vaultdrive.bug = None);
      Alcotest.(check (list string)) "re-serialises identically" lines
        (Campaign.to_trace ~seed:11 cfg sops')

let test_committed_trace_replays () =
  (* The committed regression trace: a rollback silently accepted by
     the accept_stale bug, shrunk by the campaign engine. It must keep
     reproducing its violation, byte for byte. *)
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (Testlib.data_lines "traces/vault_rollback.jsonl")
  in
  match Campaign.of_trace lines with
  | Error e -> Alcotest.failf "committed trace unparseable: %s" e
  | Ok (seed, cfg, sops) -> (
      Alcotest.(check bool) "trace carries the bug" true
        (cfg.Vaultdrive.bug = Some Bugs.Accept_stale);
      match Vaultdrive.replay cfg ~seed sops with
      | Ok _ -> Alcotest.fail "committed violation no longer reproduces"
      | Error v ->
          Alcotest.(check bool) "a rollback was silently accepted" true
            (String.length v.Vaultdrive.reason > 0
            && String.equal
                 (Vaultdrive.pp_sop v.Vaultdrive.sop)
                 (Vaultdrive.pp_sop Vaultdrive.(A_rollback_blob { depth = 1 }))))

let suite =
  [
    Alcotest.test_case "seal/unseal round trip restores state" `Quick
      test_roundtrip;
    Alcotest.test_case "tampered blobs refused" `Quick test_tamper_refused;
    Alcotest.test_case "rollback reported stale" `Quick test_rollback_refused;
    Alcotest.test_case "seal key bound to the boot secret" `Quick
      test_key_bound_to_boot_secret;
    Alcotest.test_case "seal key bound to the measurement" `Quick
      test_key_bound_to_measurement;
    Alcotest.test_case "state and key survive an OS crash" `Quick
      test_survives_os_crash;
    Alcotest.test_case "blob survives a full reboot (same seed)" `Quick
      test_survives_full_reboot;
    Alcotest.test_case "armed bugs really disable detection" `Quick
      test_bugs_disable_detection;
    Alcotest.test_case "clean storage campaign, all classes" `Quick
      test_clean_campaign;
    Alcotest.test_case "campaign byte-identical at -j 1 vs -j 2" `Quick
      test_campaign_deterministic;
    Alcotest.test_case "self-test: accept_tampered caught" `Quick
      test_catch_accept_tampered;
    Alcotest.test_case "self-test: accept_stale caught" `Quick
      test_catch_accept_stale;
    Alcotest.test_case "trace round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "committed rollback trace still reproduces" `Quick
      test_committed_trace_replays;
  ]
