module Os = Komodo_os.Os
module Monitor = Komodo_core.Monitor
module Bugs = Komodo_core.Bugs
module Errors = Komodo_core.Errors
module Pagedb = Komodo_core.Pagedb
module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Boot = Komodo_tz.Boot
module Attacks = Komodo_sec.Attacks
module Metrics = Komodo_telemetry.Metrics
module Span = Komodo_telemetry.Span
module Json = Komodo_telemetry.Json

type op =
  | Smc of { call : int; args : int list; budget : int option }
  | Write_ins of { addr : int; value : int }

let pp_op = function
  | Smc { call; args; budget } ->
      Printf.sprintf "%s(%s)%s" (Aspec.smc_name call)
        (String.concat ", " (List.map (Printf.sprintf "0x%x") args))
        (match budget with None -> "" | Some n -> Printf.sprintf " [irq budget %d]" n)
  | Write_ins { addr; value } -> Printf.sprintf "write_ins *0x%x <- 0x%x" addr value

type divergence = { index : int; op : op; reason : string }

let pp_divergence d = Printf.sprintf "op %d: %s\n  %s" d.index (pp_op d.op) d.reason

(* The probe enclave occupies a fixed page layout built by the prelude. *)
let probe_asp = 0
let probe_l1 = 1
let probe_code = 3
let probe_th_page = 5

(* The world's monitor carries the armed bug; [run_ops] hands the spec
   step the same one. *)
type world = { w_os : Os.t; w_spec : Astate.t; w_cover : Cover.t }

let world_cover w = w.w_cover
let probe_thread _ = probe_th_page

type rstate = {
  os : Os.t;
  spec : Astate.t;
  probe_ok : bool;
  abs_cache : Abs.cache;
      (** The post-op abstraction's per-page memo; validated by the
          identity of each page's entry and table chunk. *)
}

let initial_rstate w =
  { os = w.w_os; spec = w.w_spec; probe_ok = true; abs_cache = Abs.cache () }

(* -- plumbing ------------------------------------------------------------ *)

let err_word e = Word.to_int (Errors.to_word e)

let set_irq_budget b (os : Os.t) =
  let mon = os.Os.mon in
  if mon.Monitor.mach.State.irq_budget = b then os
  else
    let mach = { mon.Monitor.mach with State.irq_budget = b } in
    { os with Os.mon = { mon with Monitor.mach } }

(* The probe thread is only predictable while the enclave the prelude
   built is intact: addrspace 0 final with its original first-level
   table, and page 5 the original idle thread. The flag latches false
   permanently the moment the shape breaks, so later reincarnations of
   the same page numbers are treated as opaque enclaves. *)
let probe_shape spec =
  (match Astate.get spec probe_asp with
  | Astate.Aaddrspace a -> a.Astate.st = Astate.Sfinal && a.Astate.l1pt = probe_l1
  | _ -> false)
  &&
  match Astate.get spec probe_th_page with
  | Astate.Athread t ->
      t.Astate.tasp = probe_asp && t.Astate.entry = 0 && (not t.Astate.entered)
      && not t.Astate.has_ctx
  | _ -> false

let record_transitions cover before after =
  match cover with
  | None -> ()
  | Some c ->
      List.iter
        (fun (_, from_type, to_type) -> Cover.record_transition c ~from_type ~to_type)
        (Pagedb.diff_types before.Monitor.pagedb after.Monitor.pagedb)

(* MapSecure initial-contents oracle: the staged insecure page's bytes at
   call time, read only when the spec's own success preconditions on the
   content address hold (reading elsewhere would trip the TZASC). *)
let contents_oracle rs ~call ~args =
  if call <> Aspec.smc_map_secure then None
  else
    match args with
    | _ :: _ :: _ :: c :: _ ->
        let c = c land 0xffffffff in
        if c <> 0 && c land 0xfff = 0 && Astate.valid_insecure rs.spec.Astate.plat c
        then Some (Os.read_bytes rs.os (Word.of_int c) 4096)
        else None
    | _ -> None

let page_diff_reason what spec impl diffs =
  let pp n =
    Printf.sprintf "page %d: spec %s, impl %s" n (Astate.pp_at spec n) (Astate.pp_at impl n)
  in
  let shown = List.filteri (fun i _ -> i < 4) diffs in
  Printf.sprintf "%s:\n    %s%s" what
    (String.concat "\n    " (List.map pp shown))
    (if List.length diffs > 4 then
       Printf.sprintf "\n    ... and %d more" (List.length diffs - 4)
     else "")

(* Opaque Enter/Resume: the enclave may retype and remap its own pages
   (SVCs), which the spec cannot predict. Adopt the implementation's
   version of any differing page — but only if both sides agree the page
   belongs to the running enclave. Anything else escaping the run is a
   confinement violation; the thread page itself must additionally agree
   on the lifecycle bits the spec does predict. [diffs] is
   [Astate.diff spec' impl_abs]. *)
let reconcile spec' impl_abs (p : Aspec.pending) diffs =
  let step acc n =
    match acc with
    | Error _ -> acc
    | Ok sp -> (
        let lv = Astate.get sp n and rv = Astate.get impl_abs n in
        let both_owned =
          Astate.owner_of lv = Some p.Aspec.asp
          && Astate.owner_of rv = Some p.Aspec.asp
        in
        if not both_owned then
          Error
            (Printf.sprintf
               "effect escaped the running enclave (asp %d) — page %d: spec %s, impl %s"
               p.Aspec.asp n (Astate.pp_at spec' n) (Astate.pp_at impl_abs n))
        else if n = p.Aspec.th then
          match (lv, rv) with
          | Astate.Athread lt, Astate.Athread rt
            when lt.Astate.tasp = rt.Astate.tasp
                 && lt.Astate.entered = rt.Astate.entered
                 && lt.Astate.has_ctx = rt.Astate.has_ctx ->
              Ok (Astate.set sp n rv)
          | _ ->
              Error
                (Printf.sprintf "thread %d lifecycle mismatch: spec %s, impl %s"
                   n (Astate.pp_at spec' n) (Astate.pp_at impl_abs n))
        else Ok (Astate.set sp n rv))
  in
  List.fold_left step (Ok spec') diffs

(* -- one lockstep op ----------------------------------------------------- *)

(* The abstraction function under an "abs" profiling span. It charges
   no modelled cycles (it is checker machinery, not monitor work), so
   the span's payload is its wallclock attribution and call count. *)
let abs_span rs (os' : Os.t) =
  let mon = os'.Os.mon in
  Monitor.span_enter mon "abs";
  let a = Abs.abs ~cache:rs.abs_cache mon in
  Monitor.span_exit mon;
  a

let apply_op_checked ?mutate ?cover ?(opaque_contents = false)
    ?(opaque_probe = false) ?rng_exhausted rs index op :
    (rstate, divergence) result =
  let diverge reason = Error { index; op; reason } in
  match op with
  | Write_ins { addr; value } -> (
      try
        let os = Os.write_word rs.os (Word.of_int addr) (Word.of_int value) in
        Ok { rs with os }
      with Os.Protected _ ->
        diverge "OS store to a supposedly insecure address was blocked")
  | Smc { call; args; budget } -> (
      let os = set_irq_budget budget rs.os in
      let probe spec n =
        (not opaque_probe) && rs.probe_ok && n = probe_th_page && probe_shape spec
      in
      let is_probe_enter =
        call = Aspec.smc_enter
        && (match args with th :: _ -> probe rs.spec (th land 0xffffffff) | [] -> false)
      in
      (* The entropy oracle defaults to the implementation's own pre-call
         budget; a fault driver arming an exhaustion at this op's commit
         point overrides it to true. *)
      let rng_exhausted =
        match rng_exhausted with
        | Some b -> b
        | None -> Komodo_tz.Rng.exhausted os.Os.mon.Monitor.rng
      in
      match Os.smc os ~call ~args:(List.map Word.of_int args) with
      | exception e ->
          diverge (Printf.sprintf "implementation raised %s" (Printexc.to_string e))
      | os', e, ret -> (
          let ew = err_word e and rw = Word.to_int ret in
          (* The spec reads MapSecure's contents only when it succeeds, and
             a spec success against a failed call is an error-word
             divergence whatever the contents: read the staged page (as it
             was before the call) only when the call succeeded. *)
          let contents =
            if opaque_contents || ew <> Aspec.e_success then None
            else contents_oracle rs ~call ~args
          in
          record_transitions cover os.Os.mon os'.Os.mon;
          (match cover with Some c -> Cover.record_smc c ~call ~err:ew | None -> ());
          let finish spec_final =
            (* Break-only latch: probe_ok drops (permanently) when an op
               takes the probe shape from intact to broken. For worlds
               built by [make_world] the shape is intact from op 0, so
               this is extensionally identical to re-ANDing the shape on
               every op; the explorer's shorter prelude leaves the probe
               enclave un-finalised, and the break-only rule is what
               lets its traces replay here without the latch dropping
               before the shape was ever established. *)
            Ok
              {
                rs with
                os = os';
                spec = spec_final;
                probe_ok =
                  rs.probe_ok
                  && (spec_final == rs.spec
                     || (not (probe_shape rs.spec))
                     || probe_shape spec_final);
              }
          in
          match
            Aspec.step_smc ?mutate ~rng_exhausted rs.spec ~probe ~contents ~call
              ~args
          with
          | exception Aspec.Stuck msg -> diverge ("spec stuck: " ^ msg)
          | Aspec.Done (spec', serr, sret) ->
              if serr <> ew then
                diverge
                  (Printf.sprintf "error word: spec %s (%d), impl %s (%d)"
                     (Aspec.err_name serr) serr (Aspec.err_name ew) ew)
              else if sret <> rw then
                diverge (Printf.sprintf "return value: spec 0x%x, impl 0x%x" sret rw)
              else begin
                (match cover with
                | Some c when is_probe_enter && ew = Aspec.e_success -> (
                    match args with
                    | _ :: sv :: _ when sv >= 0 && sv <= 8 ->
                        let svc_err =
                          if sv = Aspec.svc_exit then Aspec.e_success else rw
                        in
                        Cover.record_svc c ~call:sv ~err:svc_err
                    | _ -> ())
                | _ -> ());
                let impl_abs = abs_span rs os' in
                match Astate.diff spec' impl_abs with
                | [] -> finish spec'
                | diffs ->
                    diverge (page_diff_reason "state divergence" spec' impl_abs diffs)
              end
          | Aspec.Pending p -> (
              match Aspec.allowed_outcome ew with
              | None ->
                  diverge
                    (Printf.sprintf
                       "%s of an opaque enclave returned %s (%d): not a legal outcome"
                       (Aspec.smc_name call) (Aspec.err_name ew) ew)
              | Some outcome -> (
                  let spec' = Aspec.resolve rs.spec p ~outcome in
                  let impl_abs = abs_span rs os' in
                  match Astate.diff spec' impl_abs with
                  | [] -> finish spec'
                  | diffs -> (
                      match reconcile spec' impl_abs p diffs with
                      | Error reason -> diverge reason
                      | Ok spec_final -> (
                          match Astate.diff spec_final impl_abs with
                          | [] -> finish spec_final
                          | diffs ->
                              diverge
                                (page_diff_reason "post-reconcile divergence"
                                   spec_final impl_abs diffs)))))))

(** One lockstep op, wrapped in an op-level profiling span when the
    world's monitor carries a live recorder (single branch otherwise).
    Depth is snapshotted so a diverging op unwinds cleanly. *)
let apply_op ?mutate ?cover ?opaque_contents ?opaque_probe ?rng_exhausted rs
    index op =
  let mon = rs.os.Os.mon in
  if not (Monitor.spans_on mon) then
    apply_op_checked ?mutate ?cover ?opaque_contents ?opaque_probe
      ?rng_exhausted rs index op
  else begin
    let sdepth = Monitor.span_depth mon in
    let name =
      match op with
      | Smc { call; _ } -> "op." ^ Aspec.smc_name call
      | Write_ins _ -> "op.write_ins"
    in
    Monitor.span_enter mon name;
    let r =
      apply_op_checked ?mutate ?cover ?opaque_contents ?opaque_probe
        ?rng_exhausted rs index op
    in
    (* The shared recorder is reachable through any monitor copy; use
       the post-op one for the closing cycle stamp when the op landed. *)
    let mon' = match r with Ok rs' -> rs'.os.Os.mon | Error _ -> mon in
    Monitor.span_exit_to mon' sdepth;
    r
  end

(* -- the prelude --------------------------------------------------------- *)

let mapping_rx_va0 = 0x5
let mapping_rw va = va lor 0x3
let mapping_rx va = va lor 0x5

let prelude_ops () =
  let staging = Word.to_int Os.staging_base in
  let shared = Word.to_int Os.shared_base in
  let smc call args = Smc { call; args; budget = None } in
  [
    (* Probe enclave: pages 0-7, svc_probe code at VA 0, scratch data at
       VA 0x1000, idle thread on page 5, two spares. *)
    smc Aspec.smc_init_addrspace [ 0; 1 ];
    smc Aspec.smc_init_l2ptable [ 0; 2; 0 ];
    smc Aspec.smc_map_secure [ 0; probe_code; mapping_rx_va0; staging ];
    smc Aspec.smc_map_secure [ 0; 4; mapping_rw 0x1000; 0 ];
    smc Aspec.smc_init_thread [ 0; probe_th_page; 0 ];
    smc Aspec.smc_alloc_spare [ 0; 6 ];
    smc Aspec.smc_alloc_spare [ 0; 7 ];
    smc Aspec.smc_finalise [ 0 ];
    (* Workload enclave: pages 8-16, three opaque threads (exit at VA 0,
       fault at VA 0x1000, spin at VA 0x2000) and a shared window. *)
    smc Aspec.smc_init_addrspace [ 8; 9 ];
    smc Aspec.smc_init_l2ptable [ 8; 10; 0 ];
    smc Aspec.smc_map_secure [ 8; 11; mapping_rx_va0; staging + 0x1000 ];
    smc Aspec.smc_map_secure [ 8; 12; mapping_rx 0x1000; staging + 0x2000 ];
    smc Aspec.smc_map_secure [ 8; 13; mapping_rx 0x2000; staging + 0x3000 ];
    smc Aspec.smc_init_thread [ 8; 14; 0 ];
    smc Aspec.smc_init_thread [ 8; 15; 0x1000 ];
    smc Aspec.smc_init_thread [ 8; 16; 0x2000 ];
    smc Aspec.smc_map_insecure [ 8; mapping_rw 0x3000; shared ];
    smc Aspec.smc_finalise [ 8 ];
    (* A third enclave left mid-construction (Init state). *)
    smc Aspec.smc_init_addrspace [ 17; 18 ];
    smc Aspec.smc_init_l2ptable [ 17; 19; 1 ];
  ]

let page_image prog = List.hd (Uprog.to_page_images (Uprog.code_words prog))

let build_world ?bug ~npages ?sink ?spans ~seed () =
  let os = Os.boot ~seed ~npages ?sink ?spans () in
  let staging = Os.staging_base in
  let stage os off prog =
    Os.write_bytes os (Word.add staging (Word.of_int off)) (page_image prog)
  in
  let os = stage os 0 Progs.svc_probe in
  let os = stage os 0x1000 Progs.add_args in
  let os = stage os 0x2000 Progs.fault_unmapped in
  let os = stage os 0x3000 Progs.spin_forever in
  let cover = Cover.create () in
  let rs0 =
    { os; spec = Abs.abs os.Os.mon; probe_ok = true; abs_cache = Abs.cache () }
  in
  let rs =
    List.fold_left
      (fun (rs, i) op ->
        match apply_op ~cover rs i op with
        | Ok rs' -> (rs', i + 1)
        | Error d -> failwith ("refinement prelude diverged — " ^ pp_divergence d))
      (rs0, 0) (prelude_ops ())
    |> fst
  in
  (* Zero the staging window so adversarial MapSecure calls that reuse it
     copy in inert zero pages, not live probe code. *)
  let os = Os.write_bytes rs.os staging (String.make 0x4000 '\000') in
  (* Only the generated phase runs with the bug armed. *)
  let os = { os with Os.mon = { os.Os.mon with Monitor.bug } } in
  { w_os = os; w_spec = rs.spec; w_cover = cover }

(* Post-prelude templates, one per page count per domain. The prelude
   draws no entropy and runs with no bug armed, so the built
   world depends on the seed only through the boot secret and the RNG.
   A fork shares the template's immutable machine state, PageDB,
   allocator and abstract state; it takes a fresh boot's secret and
   RNG, a fresh executor (its decode cache is mutable) and a copy of
   the template's coverage. *)
let templates : (int, world) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let fork t ~bug ~seed =
  let os = t.w_os in
  let b = Boot.boot ~seed ~plat:os.Os.mon.Monitor.plat () in
  let mon = { os.Os.mon with Monitor.attest_key = b.Boot.attest_key; rng = b.Boot.rng; bug } in
  let cover = Cover.create () in
  Cover.merge_into cover t.w_cover;
  {
    w_os = { os with Os.mon; exec = Komodo_user.Verifier.executor () };
    w_spec = t.w_spec;
    w_cover = cover;
  }

(* A telemetry sink or span recorder observes the prelude itself, so
   such a world is built fresh. *)
let make_world ?bug ?(npages = 40) ?sink ?spans ~seed () =
  if Option.is_some sink || Option.is_some spans then
    build_world ?bug ~npages ?sink ?spans ~seed ()
  else
    let tbl = Domain.DLS.get templates in
    let t =
      match Hashtbl.find_opt tbl npages with
      | Some t -> t
      | None ->
          (* Any seed: a fork replaces everything the seed decides. *)
          let t = build_world ~npages ~seed:0 () in
          Hashtbl.add tbl npages t;
          t
    in
    fork t ~bug ~seed

(* -- adversarial generation ---------------------------------------------- *)

type gen = { lcg : Komodo_rand.Lcg.t; mutable probe_sv : int }

let rnd g n = Komodo_rand.Lcg.below g.lcg n

let pick g l = List.nth l (rnd g (List.length l))

let gen_ops w ~seed ~n =
  let plat = w.w_spec.Astate.plat in
  let npages = plat.Astate.npages in
  let staging = Word.to_int Os.staging_base in
  let shared = Word.to_int Os.shared_base in
  let document = Word.to_int Os.document_base in
  let g =
    { lcg = Komodo_rand.Lcg.make ((seed lxor 0x5eed) land 0x3fffffff); probe_sv = seed mod 9 }
  in
  let scratch () = 20 + rnd g (max 1 (npages - 20)) in
  let asps = [ 0; 8; 17 ] in
  let any_asp () = pick g [ 0; 8; 17; scratch (); 14 ] in
  let mpool =
    [
      0x5; 0x1003; 0x2005; 0x3003; 0x4001; 0x7007;
      0x2000 (* no valid bit *); 0x1009 (* stray bit *);
      0x40000001 (* VA at 1 GB: high bits ignored by the walker *);
      0x400005; 0x401003 (* first-level slot 1, live only for enclave 17 *);
    ]
  in
  let cpool =
    [
      0; staging; staging + 0x1000; plat.Astate.monitor_base;
      plat.Astate.secure_base; shared; 0x1001 (* unaligned *); document;
    ]
  in
  let smc ?budget call args = Smc { call; args; budget } in
  let probe_op () =
    let sv =
      if rnd g 4 = 0 then rnd g 12
      else begin
        let sv = g.probe_sv in
        g.probe_sv <- (g.probe_sv + 1) mod 9;
        sv
      end
    in
    let a1, a2 =
      if sv = Aspec.svc_exit then (pick g [ 0; 1; 0xdead; 0x1234 ], 0)
      else if sv = Aspec.svc_verify then
        (pick g [ 0x1000; 0x1040; 0x1ff0; 0x1001; 0x2000; 0 ], 0)
      else if sv = Aspec.svc_init_l2ptable then
        (pick g [ 6; 7; scratch (); 4 ], pick g [ 0; 1; 2; 255; 256; 1000 ])
      else if sv = Aspec.svc_map_data then
        ( pick g [ 6; 7; scratch (); 4 ],
          pick g [ 0x4003; 0x5005; 0x1003; 0x40000001; 0x1009; 0; 0x2000 ] )
      else if sv = Aspec.svc_unmap_data then
        (* Never page 3: the probe must not unmap its own code. *)
        (pick g [ 4; 6; 7; scratch () ], pick g [ 0x1000; 0x4000; 0; 0x2000 ])
      else if sv = Aspec.svc_set_dispatcher then
        (pick g [ 0; 0x1000; 0x40000000; 0x2000 ], 0)
      else (0, 0)
    in
    [ smc Aspec.smc_enter [ probe_th_page; sv; a1; a2 ] ]
  in
  let enter_workload () =
    let th = pick g [ 14; 15; 16 ] in
    let budget =
      (* Entering the spinner always arms an interrupt source; the others
         may run uninterrupted. [resume_op] does not do the same: a third
         of its Resumes, the spinner's included, carry no budget, and
         then the executor's fuel watchdog ends the spinner as an
         interrupt. *)
      if th = 16 || rnd g 3 > 0 then Some (pick g [ 1; 2; 5; 20; 50 ]) else None
    in
    [ smc ?budget Aspec.smc_enter [ th; rnd g 16; rnd g 16; 0 ] ]
  in
  let resume_op () =
    let th = pick g [ 14; 15; 16; probe_th_page; scratch () ] in
    let budget = if rnd g 3 = 0 then None else Some (pick g [ 1; 5; 20 ]) in
    [ smc ?budget Aspec.smc_resume [ th ] ]
  in
  let construction () =
    let asp = any_asp () in
    let p () = pick g [ scratch (); scratch (); 0; 5; 8; 17; 1; npages; npages + 5 ] in
    let op =
      match rnd g 7 with
      | 0 -> smc Aspec.smc_init_addrspace [ p (); p () ]
      | 1 -> smc Aspec.smc_init_thread [ asp; p (); pick g [ 0; 0x1000; 0x40000000; 7 ] ]
      | 2 -> smc Aspec.smc_init_l2ptable [ asp; p (); pick g [ 0; 1; 2; 255; 256 ] ]
      | 3 -> smc Aspec.smc_alloc_spare [ asp; p () ]
      | 4 -> smc Aspec.smc_map_secure [ asp; p (); pick g mpool; pick g cpool ]
      | 5 -> smc Aspec.smc_map_insecure [ asp; pick g mpool; pick g cpool ]
      | _ -> smc Aspec.smc_finalise [ pick g asps ]
    in
    [ op ]
  in
  let stop_remove () =
    if rnd g 2 = 0 then [ smc Aspec.smc_stop [ any_asp () ] ]
    else
      [
        smc Aspec.smc_remove
          [ pick g [ scratch (); 0; 3; 5; 6; 7; 8; 14; 17; 18; 19 ] ];
      ]
  in
  let misc () =
    match rnd g 3 with
    | 0 -> [ smc Aspec.smc_get_phys_pages [] ]
    | 1 -> [ smc (pick g [ 0; 13; 99 ]) [] ]
    | _ ->
        [ smc Aspec.smc_enter [ pick g [ 3; 0; scratch (); 17; npages - 1; 12; 18 ]; rnd g 8; 0; 0 ] ]
  in
  let write_op () =
    [ Write_ins { addr = shared + (4 * rnd g 1024); value = rnd g 0x10000 } ]
  in
  let attack () =
    let shapes =
      Attacks.smc_shapes ~base:20
        ~monitor_pa:(plat.Astate.monitor_base + 0x1000)
        ~secure_pa:plat.Astate.secure_base
    in
    let _, calls = pick g shapes in
    List.map (fun (call, args) -> smc call args) calls
  in
  (* Weighted templates; the profile rotates with the seed so different
     trials stress different regions of the call space. *)
  let base =
    [
      (20, probe_op); (10, enter_workload); (6, resume_op); (25, construction);
      (12, stop_remove); (4, misc); (8, write_op); (10, attack); (5, misc);
    ]
  in
  let weights =
    match seed mod 4 with
    | 0 -> base
    | 1 ->
        (* lifecycle-heavy *)
        [ (10, probe_op); (8, enter_workload); (4, resume_op); (35, construction);
          (25, stop_remove); (3, misc); (5, write_op); (10, attack) ]
    | 2 ->
        (* probe/SVC-heavy *)
        [ (40, probe_op); (8, enter_workload); (8, resume_op); (15, construction);
          (8, stop_remove); (4, misc); (5, write_op); (12, attack) ]
    | _ ->
        (* attack/execution-heavy *)
        [ (15, probe_op); (20, enter_workload); (12, resume_op); (15, construction);
          (8, stop_remove); (4, misc); (6, write_op); (20, attack) ]
  in
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weights in
  let draw () =
    let r = rnd g total in
    let rec go acc = function
      | [] -> assert false
      | (w, f) :: rest -> if r < acc + w then f () else go (acc + w) rest
    in
    go 0 weights
  in
  let rec build acc count = if count >= n then List.rev acc else
      let ops = draw () in
      build (List.rev_append ops acc) (count + List.length ops)
  in
  build [] 0

(* -- running, shrinking, trials ------------------------------------------ *)

let run_ops ?cover w ops =
  let rec go rs i = function
    | [] -> Ok i
    | op :: rest -> (
        match apply_op ?mutate:w.w_os.Os.mon.Monitor.bug ?cover rs i op with
        | Ok rs' -> go rs' (i + 1) rest
        | Error d -> Error d)
  in
  go (initial_rstate w) 0 ops

let truncate_at ops index = List.filteri (fun i _ -> i <= index) ops

(** Generic greedy 1-minimal shrinker over any op type and failure
    representation: truncate at the first failure, then repeatedly drop
    single ops while the remainder still fails. Shared by {!shrink} and
    the fault-injection driver. *)
let shrink_seq ~(run : 'op list -> ('ok, 'bad) result) ~(index : 'bad -> int) ops
    =
  match run ops with
  | Ok _ -> None
  | Error d0 ->
      let rec fix ops d =
        let len = List.length ops in
        let rec try_i i =
          if i >= len then None
          else
            let cand = List.filteri (fun j _ -> j <> i) ops in
            match run cand with
            | Error d' -> Some (truncate_at cand (index d'), d')
            | Ok _ -> try_i (i + 1)
        in
        match try_i 0 with
        | Some (ops', d') -> fix ops' d'
        | None -> (ops, d)
      in
      Some (fix (truncate_at ops (index d0)) d0)

(* -- campaign driver ------------------------------------------------------- *)

let kind = "check"

let layers = [ Bugs.Monitor; Bugs.Spec ]

type config = {
  bug : Bugs.t option;
  npages : int;
  ops_per_trial : int;
  metrics : bool;
  profile : bool;
  clock : Span.clock option;
}

let default =
  { bug = None; npages = 40; ops_per_trial = 40; metrics = false; profile = false; clock = None }

let check_npages ~min ~why n =
  if n < min then Error (Printf.sprintf "pages must be at least %d (%s), got %d" min why n)
  else
    match Komodo_tz.Platform.make ~npages:n () with
    | _ -> Ok ()
    | exception Invalid_argument e -> Error (Printf.sprintf "pages %d: %s" n e)

let validate c =
  if c.ops_per_trial < 0 then
    Error (Printf.sprintf "ops must be non-negative, got %d" c.ops_per_trial)
  else
    Result.bind
      (check_npages ~min:20 ~why:"the prelude builds its enclaves on pages 0-19" c.npages)
      (fun () -> Bugs.armable ~kind layers c.bug)

type failure = divergence

type trial = {
  t_ops_run : int;
  t_cover : Cover.t;
  t_metrics : Metrics.t option;
  t_spans : Span.node list;
  t_divergence : divergence option;
}

let run_trial c ~seed =
  let reg = if c.metrics then Some (Metrics.create ()) else None in
  let sink = Option.map Metrics.sink reg in
  (* Clock-free by default: without [clock] the recorded tree is a pure
     function of the seed (wallclock fields are 0), which is what makes
     profile output deterministic across -j levels. *)
  let spans = if c.profile then Some (Span.create ?clock:c.clock ()) else None in
  let w = make_world ?bug:c.bug ~npages:c.npages ?sink ?spans ~seed () in
  (* Every world owns its coverage table, so the trial records into it. *)
  let cover = world_cover w in
  let ops = gen_ops w ~seed ~n:c.ops_per_trial in
  let result = run_ops ~cover w ops in
  let t_spans = match spans with None -> [] | Some r -> Span.roots r in
  let t_ops_run, t_divergence =
    match result with Ok ran -> (ran, None) | Error d -> (d.index, Some d)
  in
  { t_ops_run; t_cover = cover; t_metrics = reg; t_spans; t_divergence }

let failed t = t.t_divergence <> None

let shrink c ~seed =
  let w = make_world ?bug:c.bug ~npages:c.npages ~seed () in
  shrink_seq ~run:(run_ops w) ~index:(fun d -> d.index) (gen_ops w ~seed ~n:c.ops_per_trial)

let counters t = [ ("ops", t.t_ops_run) ]

type outcome = {
  trials_run : int;
  ops_run : int;
  divergence : (int * op list * divergence) option;
  cover : Cover.t;
  metrics : Metrics.t option;
  spans : Span.node list;
}

let reduce trials divergence =
  let cover = Cover.create () in
  List.iter (fun t -> Cover.merge_into cover t.t_cover) trials;
  let metrics =
    match List.filter_map (fun t -> t.t_metrics) trials with
    | [] -> None
    | ms ->
        let m = Metrics.create () in
        List.iter (Metrics.merge_into m) ms;
        Some m
  in
  {
    trials_run = List.length trials;
    ops_run = List.fold_left (fun a t -> a + t.t_ops_run) 0 trials;
    divergence;
    cover;
    metrics;
    spans = List.concat_map (fun t -> t.t_spans) trials;
  }

(* -- traces ----------------------------------------------------------------- *)

let ( let* ) = Result.bind

let header c =
  [ ("npages", Json.Int c.npages); ("bug", Json.name Bugs.name c.bug) ]

let of_header h =
  let* npages = Json.int_field "npages" h in
  let* bug = Json.name_field "bug" Bugs.of_string h in
  Ok { default with npages; bug }

let op_to_json = function
  | Smc { call; args; budget } ->
      Json.Obj
        [
          ("call", Json.Int call);
          ("args", Json.List (List.map (fun a -> Json.Int a) args));
          ("budget", match budget with None -> Json.Null | Some b -> Json.Int b);
        ]
  | Write_ins { addr; value } ->
      Json.Obj
        [ ("write_ins", Json.Obj [ ("addr", Json.Int addr); ("value", Json.Int value) ]) ]

(* Memory holds words: a ragged store raises. *)
let word_addr name j =
  let* addr = Json.int_field name j in
  if addr land 3 = 0 then Ok addr
  else Error (Printf.sprintf "%s 0x%x is not word-aligned" name addr)

let smc_of_json j =
  let* call = Json.int_field "call" j in
  let* args = Json.ints_field "args" j in
  if List.length args <= Aspec.smc_nargs then Ok (call, args)
  else Error (Printf.sprintf "an SMC takes at most %d arguments" Aspec.smc_nargs)

let op_of_json _ j =
  match Json.member "write_ins" j with
  | Some wi ->
      let* addr = word_addr "addr" wi in
      let* value = Json.int_field "value" wi in
      Ok (Write_ins { addr; value })
  | None ->
      let* call, args = smc_of_json j in
      (* A negative budget would never fire: the interrupt comes at 0. *)
      let* budget =
        match Json.member "budget" j with
        | None | Some Json.Null -> Ok None
        | Some (Json.Int b) when b >= 0 -> Ok (Some b)
        | Some _ -> Error "budget: not a non-negative int or null"
      in
      Ok (Smc { call; args; budget })
