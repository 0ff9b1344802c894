module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Account = M3_sim.Account
module Perm = M3_mem.Perm
module Alloc = M3_mem.Alloc
module Endpoint = M3_dtu.Endpoint
module Dtu = M3_dtu.Dtu
module Platform = M3_hw.Platform
module Pe = M3_hw.Pe
module Core_type = M3_hw.Core_type
module Cost_model = M3_hw.Cost_model
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module Sched = M3_sched.Sched
module W = Msgbuf.W
module R = Msgbuf.R
open Kdata

let src = Logs.Src.create "m3.kernel" ~doc:"M3 kernel"

module Log = (val Logs.src_log src : Logs.LOG)

let kep_syscall = 0
let kep_reply = 1
let kep_service = 2

(* Dedicated channel for kernel-initiated service notifications
   (client-gone). Separate from [kep_service]/[kep_reply] so the
   heartbeat prober can notify services while the kernel loop is in
   the middle of its own service round-trip. *)
let kep_notify_send = 3
let kep_notify_reply = 4

(* Kernel SPM layout. *)
let syscall_buf_addr = 0x100
let reply_buf_addr = syscall_buf_addr + (Proto.kernel_rbuf_slots * 512)
let notify_buf_addr = reply_buf_addr + (4 * (1 lsl 11))

(* Exit code reported for aborted VPEs (negated errno, like a signal
   death in POSIX wait status). *)
let abort_exit_code = -(Errno.to_int Errno.E_vpe_dead)

(* Cycles between two heartbeat sweeps of the prober. Low enough to
   catch a crash well inside the clients' 5M-cycle syscall watchdog,
   high enough that probe traffic stays a rounding error. *)
let heartbeat_period = 50_000

(* A VPE suspended off its PE, as the kernel holds it. The DTU-captured
   state (endpoint registers, credits, ringbuffer occupancy, the whole
   SPM: see [Dtu.ext_capture]) pairs with the two pieces of simulation
   state that stand in for the core's register file: the quiesced
   process and the continuation that restarts it. Firing [img_resume]
   with the destination DTU is the software half of resume; the kernel
   does the hardware half ([ext_restore]) first. [img_mem_caps] are the
   memory capabilities windowing the VPE's SPM, recorded at capture
   while the old PE still uniquely named that SPM. *)
type image = {
  img_from_pe : int;
  img_snapshot : Dtu.snapshot;
  img_process : Process.t; (* detached, parked at a quiesce point *)
  img_resume : Dtu.t -> unit; (* one-shot; continue on this DTU *)
  img_mem_caps : cap list;
}

(* The quiesced process of a discarded image (its VPE died off-PE)
   must not linger as a resumable ghost. *)
let discard img = Process.kill img.img_process

type t = {
  platform : Platform.t;
  pe : Pe.t;
  engine : Engine.t;
  fabric : M3_noc.Fabric.t;
  vpes : (int, vpe) Hashtbl.t;
  mutable next_vpe_id : int;
  pe_owner : int option array; (* PE id -> owning VPE id *)
  kmem : Alloc.t;
  kmem_roots : (int, int) Hashtbl.t; (* region addr -> size, for free on revoke *)
  services : (string, srv_obj * cap) Hashtbl.t;
  accounts : (int, Account.t) Hashtbl.t;
  exits : (int, int Process.Ivar.ivar) Hashtbl.t;
  ep_caps : (int * int, cap) Hashtbl.t; (* (vpe id, ep) -> configured cap *)
  mutable syscalls_handled : int;
  mutable kills_ignored : int; (* exits/aborts that lost the race to die first *)
  deferred_syscalls : Endpoint.message Queue.t;
      (* syscalls fetched while blocked in a service round-trip; the
         main loop drains them (in arrival order) before waiting *)
  mutable prober_running : bool;
  (* --- VPE scheduler state (None: no suspend/resume) ----------------- *)
  sched : image Sched.t option;
  envs : (int, Env.t) Hashtbl.t; (* started VPE -> its environment *)
}

let create ?(sched = false) platform ~kernel_pe =
  let config = Platform.config platform in
  let pe_owner = Array.make config.pe_count None in
  pe_owner.(kernel_pe) <- Some (-1);
  {
    platform;
    pe = Platform.pe platform kernel_pe;
    engine = Platform.engine platform;
    fabric = Platform.fabric platform;
    vpes = Hashtbl.create 16;
    next_vpe_id = 1;
    pe_owner;
    kmem = Alloc.create ~base:0 ~size:config.dram_size;
    kmem_roots = Hashtbl.create 16;
    services = Hashtbl.create 4;
    accounts = Hashtbl.create 16;
    exits = Hashtbl.create 16;
    ep_caps = Hashtbl.create 64;
    syscalls_handled = 0;
    kills_ignored = 0;
    deferred_syscalls = Queue.create ();
    prober_running = false;
    sched = (if sched then Some (Sched.create ()) else None);
    envs = Hashtbl.create 16;
  }

let kdtu t = Pe.dtu t.pe
let kernel_pe_id t = Pe.id t.pe

let dtu_exn = function
  | Ok v -> v
  | Error e ->
    failwith (Printf.sprintf "kernel: DTU error: %s" (M3_dtu.Dtu_error.to_string e))

(* --- capability side effects -------------------------------------- *)

let kill_vpe : (t -> vpe -> cause:exit_cause -> unit) ref =
  ref (fun _ _ ~cause:_ -> assert false)

(* Side effects of a capability disappearing: endpoints configured
   from it become unusable, root DRAM regions return to the allocator,
   losing a VPE capability kills the VPE, losing a service capability
   deregisters the service. *)
let drop_cap t cap =
  let vpe = cap.c_owner in
  List.iter
    (fun ep ->
      Hashtbl.remove t.ep_caps (vpe.v_id, ep);
      if vpe.v_state <> V_dead && vpe.v_pe >= 0 then
        match Dtu.ext_invalidate (kdtu t) ~target:vpe.v_pe ~ep with
        | Ok () | Error _ -> ())
    cap.c_activated;
  cap.c_activated <- [];
  match cap.c_obj with
  | O_mem { mem_pe; mem_addr; mem_size; _ }
    when cap.c_parent = None && mem_pe = Platform.dram_node t.platform -> (
    (* Only root DRAM capabilities return storage; SPM-backed memory
       capabilities (e.g. a VPE's own scratchpad) share the address
       space origin but are not allocator-backed. *)
    match Hashtbl.find_opt t.kmem_roots mem_addr with
    | Some size when size = mem_size ->
      Hashtbl.remove t.kmem_roots mem_addr;
      Alloc.free t.kmem ~addr:mem_addr ~size:mem_size
    | Some _ | None -> ())
  | O_vpe target when target.v_id <> cap.c_owner.v_id ->
    (* Unconditional: a kill that loses the race to an earlier exit or
       abort is counted (and otherwise ignored) by [do_kill_vpe]. *)
    !kill_vpe t target ~cause:(C_exit (-1))
  | O_srv srv -> Hashtbl.remove t.services srv.srv_name
  | O_vpe _ | O_mem _ | O_rgate _ | O_sgate _ | O_sess _ -> ()

let revoke_cap t cap = Kdata.revoke cap ~on_drop:(fun c -> drop_cap t c)

(* --- VPE lifecycle -------------------------------------------------- *)

let exit_ivar t vpe_id =
  match Hashtbl.find_opt t.exits vpe_id with
  | Some iv -> iv
  | None ->
    let iv = Process.Ivar.create () in
    Hashtbl.add t.exits vpe_id iv;
    iv

let reply_waiters t vpe =
  let waiters = vpe.v_waiters in
  vpe.v_waiters <- [];
  let code = Option.value vpe.v_exit_code ~default:(-1) in
  List.iter
    (fun (ep, slot) ->
      let w = W.create () in
      (match vpe.v_cause with
      | Some (C_abort _) -> W.u64 w (Errno.to_int Errno.E_vpe_dead)
      | Some (C_exit _) | None ->
        W.u64 w (Errno.to_int Errno.E_ok);
        W.u64 w code);
      match Dtu.reply (kdtu t) ~ep ~slot ~payload:(W.contents w) with
      | Ok () -> ()
      | Error e ->
        Log.err (fun m ->
            m "wait-reply failed: %s" (M3_dtu.Dtu_error.to_string e)))
    waiters

(* Does the capability descend from a service capability? Send gates
   rooted in [O_srv] are session channels: the service keeps serving
   its remaining clients on that receive gate, so losing one client
   must never poison it (the [Srv_client_gone] notification handles
   the cleanup instead). *)
let rec service_rooted cap =
  match cap.c_obj with
  | O_srv _ -> true
  | _ -> (
    match cap.c_parent with
    | Some p -> service_rooted p
    | None -> false)

(* A receive gate the dead VPE was sending into is orphaned when no
   surviving VPE other than the owner still holds a send capability
   for it: whoever is parked on it would wait forever. Invalidating
   the owner's endpoint wakes the waiter with [Invalid_ep], which
   libm3 surfaces as [E_pipe_broken]/EOF. *)
let poison_orphan_rgate t ~dead (rg : rgate_obj) =
  let owner = rg.rg_vpe in
  if owner.v_state <> V_dead && owner.v_pe >= 0 && owner != dead then begin
    let foreign_feeder =
      Hashtbl.fold
        (fun _ v acc ->
          acc
          || v.v_state <> V_dead && v != owner
             && Hashtbl.fold
                  (fun _ c acc2 ->
                    acc2
                    || c.c_valid
                       &&
                       match c.c_obj with
                       | O_sgate sg -> sg.sg_rgate == rg
                       | _ -> false)
                  v.v_caps false)
        t.vpes false
    in
    if not foreign_feeder then begin
      Log.debug (fun m ->
          m "kernel: poisoning orphaned rgate vpe%d/ep%d after vpe%d died"
            owner.v_id rg.rg_ep dead.v_id);
      match Dtu.ext_invalidate (kdtu t) ~target:owner.v_pe ~ep:rg.rg_ep with
      | Ok () | Error _ -> ()
    end
  end

(* Bound on kernel->service round-trips (notifications here, and
   [service_request] below): a dead or wedged service PE must not take
   the kernel loop down with it. Kept below [Env.client_watchdog] so
   the kernel answers E_timeout before clients give up. *)
let service_watchdog = 2_000_000

(* The notify channel needs two endpoints past the standard three; an
   ablated DTU may be too small to carry it (client-gone notifications
   are then skipped — a degradation, not an error). *)
let has_notify_eps t =
  (Platform.config t.platform).ep_count > kep_notify_reply

(* Tell a service that a session's client is gone, over the dedicated
   notify channel (the kernel loop may be mid round-trip on
   [kep_service]). Best effort: a dead or wedged service cannot take
   the abort path down with it. *)
let notify_client_gone t (srv : srv_obj) ~ident =
  if not (has_notify_eps t) then
    Log.debug (fun m ->
        m "kernel: too few endpoints for the notify channel; %s not told"
          srv.srv_name)
  else if
    srv.srv_vpe.v_state <> V_dead
    && srv.srv_vpe.v_pe >= 0
    && not (Dtu.failed (Pe.dtu (Platform.pe t.platform srv.srv_vpe.v_pe)))
  then begin
    let rg = srv.srv_krgate in
    dtu_exn
      (Dtu.config_local (kdtu t) ~ep:kep_notify_send
         (Endpoint.Send
            {
              dst_pe = rg.rg_vpe.v_pe;
              dst_ep = rg.rg_ep;
              label = 0L;
              msg_order = rg.rg_slot_order;
              credits = Endpoint.Unlimited;
            }));
    let w = W.create () in
    W.u8 w (Proto.srv_opcode_to_int Proto.Srv_client_gone);
    W.i64 w ident;
    match
      Dtu.send (kdtu t) ~ep:kep_notify_send ~payload:(W.contents w)
        ~reply:(kep_notify_reply, 0L) ()
    with
    | Error e ->
      Log.warn (fun m ->
          m "kernel: client-gone notify to %s failed: %s" srv.srv_name
            (M3_dtu.Dtu_error.to_string e))
    | Ok () -> (
      match
        Dtu.wait (kdtu t) ~eps:[ kep_notify_reply ]
          ~deadline:(Engine.now t.engine + service_watchdog)
      with
      | Some msg -> Dtu.ack (kdtu t) ~ep:kep_notify_reply ~slot:msg.slot
      | None ->
        Log.warn (fun m ->
            m "kernel: client-gone notify to %s timed out" srv.srv_name))
  end

(* Tears a VPE down: mark dead, free its PE, reset the DTU, drop all
   its capabilities (which recursively revokes anything derived from
   them in other VPEs), and wake waiters.

   Idempotent under the exit-vs-abort race: whichever cause arrives
   first sticks, the loser is counted in [kills_ignored].

   An abort additionally runs crash containment: open sessions are
   reported to their services ([Srv_client_gone]), orphaned receive
   gates are poisoned so parked peers wake up, stray endpoint
   bookkeeping is swept, and a hardware-dead PE is quarantined. May
   block (service round-trips), so it must run inside a simulation
   process — which every caller (kernel loop, prober, launcher) is. *)
let do_kill_vpe t vpe ~cause =
  if vpe.v_state = V_dead then begin
    t.kills_ignored <- t.kills_ignored + 1;
    Log.debug (fun m ->
        m "vpe%d already dead; ignoring %s" vpe.v_id
          (match cause with
          | C_exit c -> Printf.sprintf "exit(%d)" c
          | C_abort r -> Printf.sprintf "abort(%s)" r))
  end
  else begin
    vpe.v_state <- V_dead;
    vpe.v_cause <- Some cause;
    let aborted, code =
      match cause with
      | C_exit c -> (false, c)
      | C_abort _ -> (true, abort_exit_code)
    in
    if vpe.v_exit_code = None then vpe.v_exit_code <- Some code;
    Log.debug (fun m -> m "vpe%d (%s) exits with %d" vpe.v_id vpe.v_name code);
    let obs = M3_noc.Fabric.obs t.fabric in
    if Obs.enabled obs then begin
      Obs.emit obs (Event.Vpe_exit { vpe = vpe.v_id; pe = vpe.v_pe; code });
      match cause with
      | C_abort reason ->
        Obs.emit obs (Event.Vpe_abort { vpe = vpe.v_id; pe = vpe.v_pe; reason })
      | C_exit _ -> ()
    end;
    if vpe.v_pe >= 0 then begin
      t.pe_owner.(vpe.v_pe) <- None;
      Pe.halt (Platform.pe t.platform vpe.v_pe);
      (match Dtu.ext_reset (kdtu t) ~target:vpe.v_pe with Ok () | Error _ -> ())
    end;
    (* Scheduler bookkeeping: a dead VPE loses its scheduling state, and
       its captured image (if parked or queued off-PE) is discarded. *)
    (match t.sched with
    | None -> ()
    | Some sched ->
      List.iter discard (Sched.kill sched ~vpe:vpe.v_id);
      Sched.wake sched);
    Hashtbl.remove t.envs vpe.v_id;
    (* Aborts need a pre-revoke inventory: which services hold a
       session for this VPE, and which foreign receive gates it was
       feeding. Sorted for deterministic notification order. *)
    let gone_sessions, orphan_rgates =
      if not aborted then ([], [])
      else begin
        let sessions = ref [] and rgates = ref [] in
        Hashtbl.iter
          (fun _ cap ->
            if cap.c_valid then
              match cap.c_obj with
              | O_sess { sess_srv; sess_ident }
                when sess_srv.srv_vpe != vpe
                     && not
                          (List.exists
                             (fun (s, i) ->
                               s.srv_name = sess_srv.srv_name && i = sess_ident)
                             !sessions) ->
                sessions := (sess_srv, sess_ident) :: !sessions
              | O_sgate sg
                when (not (service_rooted cap))
                     && sg.sg_rgate.rg_vpe != vpe
                     && not (List.exists (fun r -> r == sg.sg_rgate) !rgates) ->
                rgates := sg.sg_rgate :: !rgates
              | _ -> ())
          vpe.v_caps;
        ( List.sort
            (fun (s1, i1) (s2, i2) ->
              compare (s1.srv_name, i1) (s2.srv_name, i2))
            !sessions,
          List.sort
            (fun r1 r2 ->
              compare (r1.rg_vpe.v_id, r1.rg_ep) (r2.rg_vpe.v_id, r2.rg_ep))
            !rgates )
      end
    in
    let own_caps = Hashtbl.fold (fun _ cap acc -> cap :: acc) vpe.v_caps [] in
    List.iter (fun cap -> revoke_cap t cap) own_caps;
    if aborted then begin
      (* Defensive sweep: no endpoint bookkeeping may outlive an
         aborted VPE, whatever state its tables were in. *)
      let stale =
        Hashtbl.fold
          (fun ((vid, _) as key) _ acc ->
            if vid = vpe.v_id then key :: acc else acc)
          t.ep_caps []
      in
      List.iter (fun key -> Hashtbl.remove t.ep_caps key) stale;
      List.iter (fun rg -> poison_orphan_rgate t ~dead:vpe rg) orphan_rgates;
      List.iter
        (fun (srv, ident) -> notify_client_gone t srv ~ident)
        gone_sessions;
      if
        vpe.v_pe >= 0 && Dtu.failed (Pe.dtu (Platform.pe t.platform vpe.v_pe))
      then begin
        Platform.quarantine t.platform vpe.v_pe;
        Log.warn (fun m ->
            m "kernel: pe%d quarantined after crash of vpe%d (%s)" vpe.v_pe
              vpe.v_id vpe.v_name)
      end
    end;
    reply_waiters t vpe;
    let iv = exit_ivar t vpe.v_id in
    if not (Process.Ivar.is_filled iv) then Process.Ivar.fill iv code
  end

let () = kill_vpe := do_kill_vpe

(* [abort] is the containment entry point: used by the heartbeat
   prober below, and directly by tests that abort a live VPE. *)
let abort t vpe ~reason = do_kill_vpe t vpe ~cause:(C_abort reason)

(* --- PE health monitoring (heartbeat prober) ------------------------- *)

(* The prober is plan-gated: without a fault plan that can crash a PE
   it is never spawned, so crash-free runs pay zero cycles for it. It
   sweeps all running VPEs with a tiny privileged read (a crashed DTU
   answers nothing but an error NACK) and aborts the casualties. It
   stands down once no further crash can happen and nobody is left
   running on a failed PE — a parked prober must not keep the engine
   from draining. It also stands down when no VPE is running at all:
   a crash scheduled past its victim's natural lifetime never fires,
   and the prober must not keep simulating an idle system waiting for
   it ([maybe_start_prober] re-arms on the next program start). *)
let rec prober_loop t plan =
  Process.wait heartbeat_period;
  let running =
    Hashtbl.fold
      (fun _ v acc -> if v.v_state = V_running then v :: acc else acc)
      t.vpes []
    |> List.sort (fun a b -> compare a.v_id b.v_id)
  in
  let dead =
    List.filter
      (fun v ->
        match Dtu.ext_read (kdtu t) ~target:v.v_pe ~addr:0 ~len:4 with
        | Ok _ -> false
        | Error _ -> true)
      running
  in
  let obs = M3_noc.Fabric.obs t.fabric in
  if Obs.enabled obs then
    Obs.emit obs
      (Event.Kernel_heartbeat
         {
           pe = kernel_pe_id t;
           probed = List.length running;
           dead = List.length dead;
         });
  List.iter
    (fun v ->
      Log.warn (fun m ->
          m "kernel: vpe%d (%s) on pe%d stopped responding; aborting" v.v_id
            v.v_name v.v_pe);
      if Obs.enabled obs then
        Obs.emit obs (Event.Vpe_crash { vpe = v.v_id; pe = v.v_pe });
      abort t v ~reason:"pe crash")
    dead;
  let stranded =
    Hashtbl.fold
      (fun _ v acc ->
        acc
        || v.v_state = V_running
           && Dtu.failed (Pe.dtu (Platform.pe t.platform v.v_pe)))
      t.vpes false
  in
  let anyone_running =
    Hashtbl.fold (fun _ v acc -> acc || v.v_state = V_running) t.vpes false
  in
  if anyone_running && (M3_fault.Plan.more_crashes_possible plan || stranded)
  then prober_loop t plan
  else t.prober_running <- false

let maybe_start_prober t =
  let plan = M3_noc.Fabric.faults t.fabric in
  if (not t.prober_running) && M3_fault.Plan.can_crash plan then begin
    t.prober_running <- true;
    ignore
      (Process.spawn t.engine ~name:"kernel:health" (fun () ->
           prober_loop t plan))
  end

(* Syscall channel: send EP to the kernel with the VPE id as
   unforgeable label, one credit; reply buffer in the child SPM. *)
let configure_syscall_eps t ~pe_id ~vpe_id =
  dtu_exn
    (Dtu.ext_config (kdtu t) ~target:pe_id ~ep:Env.ep_syscall_send
       (Endpoint.Send
          {
            dst_pe = kernel_pe_id t;
            dst_ep = kep_syscall;
            label = Int64.of_int vpe_id;
            msg_order = Proto.syscall_msg_order;
            credits = Endpoint.Credits 1;
          }));
  dtu_exn
    (Dtu.ext_config (kdtu t) ~target:pe_id ~ep:Env.ep_syscall_reply
       (Endpoint.Receive
          {
            buf_addr = Env.reply_buf_addr;
            slot_order = Proto.reply_slot_order;
            slot_count = 2;
          }));
  dtu_exn (Dtu.ext_set_privileged (kdtu t) ~target:pe_id false)

(* Creates the kernel object, binds a PE, installs the standard
   capabilities and configures the child's syscall endpoints. Must run
   inside a simulation process. *)
let create_vpe_internal t ~name ~core ~account =
  let used i = t.pe_owner.(i) <> None in
  match Platform.find_pe t.platform ~core ~used with
  | None -> Error Errno.E_no_pe
  | Some pe ->
    let id = t.next_vpe_id in
    t.next_vpe_id <- id + 1;
    let vpe = make_vpe ~id ~name ~pe:(Pe.id pe) in
    t.pe_owner.(Pe.id pe) <- Some id;
    Hashtbl.add t.vpes id vpe;
    Hashtbl.replace t.accounts id account;
    (let obs = M3_noc.Fabric.obs t.fabric in
     if Obs.enabled obs then
       Obs.emit obs (Event.Vpe_create { vpe = id; pe = Pe.id pe; name }));
    (* With the scheduler on, this PE may have been vacated by a
       suspension and its DTU still carries the suspended flag — wipe
       it. Gated so scheduler-off runs stay byte-identical. *)
    if t.sched <> None then
      dtu_exn (Dtu.ext_reset (kdtu t) ~target:(Pe.id pe));
    configure_syscall_eps t ~pe_id:(Pe.id pe) ~vpe_id:id;
    Ok vpe

let spm_mem_obj t vpe =
  let spm_size = (Platform.config t.platform).spm_size in
  O_mem { mem_pe = vpe.v_pe; mem_addr = 0; mem_size = spm_size; mem_perm = Perm.rw }

(* Installs the standard capabilities. The holder's capabilities are
   the roots so that a child's exit (which drops the child's own
   table) cannot revoke the holder's handle on it; [holder = None]
   roots them in the VPE's own table (boot-loader path). *)
let install_std_caps t vpe ~holder =
  let vpe_obj = O_vpe vpe and mem_obj = spm_mem_obj t vpe in
  match holder with
  | None -> (
    match
      ( insert vpe ~sel:Env.sel_vpe vpe_obj ~parent:None,
        insert vpe ~sel:Env.sel_mem mem_obj ~parent:None )
    with
    | Ok _, Ok _ -> Ok ()
    | Error e, _ | _, Error e -> Error e)
  | Some (requester, sel, mem_sel) -> (
    match
      ( insert requester ~sel vpe_obj ~parent:None,
        insert requester ~sel:mem_sel mem_obj ~parent:None )
    with
    | Ok vcap, Ok mcap -> (
      match
        ( derive_to ~cap:vcap ~dst:vpe ~dst_sel:Env.sel_vpe vpe_obj,
          derive_to ~cap:mcap ~dst:vpe ~dst_sel:Env.sel_mem mem_obj )
      with
      | Ok _, Ok _ -> Ok ()
      | Error e, _ | _, Error e -> Error e)
    | Error e, _ | _, Error e -> Error e)

let start_program t vpe (program : Program.t) ~args =
  let account =
    match Hashtbl.find_opt t.accounts vpe.v_id with
    | Some a -> a
    | None -> Account.create ()
  in
  let env =
    Env.create
      ~pe:(Platform.pe t.platform vpe.v_pe)
      ~fabric:t.fabric ~kernel_pe:(kernel_pe_id t) ~vpe_id:vpe.v_id
      ~name:vpe.v_name ~image_bytes:program.prog_image_bytes ~args ~account
  in
  vpe.v_state <- V_running;
  Hashtbl.replace t.envs vpe.v_id env;
  (let obs = M3_noc.Fabric.obs t.fabric in
   if Obs.enabled obs then
     Obs.emit obs
       (Event.Vpe_start { vpe = vpe.v_id; pe = vpe.v_pe; name = vpe.v_name }));
  ignore
    (Pe.spawn
       (Platform.pe t.platform vpe.v_pe)
       ~name:vpe.v_name
       (fun () -> Syscalls.run_main env program.prog_main));
  maybe_start_prober t

(* --- VPE scheduler sweep --------------------------------------------- *)

(* The kernel half of suspend/park/resume. A dedicated kernel-PE
   process executes the scheduling decisions of [Sched]: it drives the
   DTU suspend/capture/restore mechanism, moves capability bookkeeping
   when a VPE migrates, and places queued VPEs onto free PEs.
   Everything here is reachable only with [t.sched = Some _]; a
   scheduler-less kernel never calls into this section. *)

let emit_event t ev =
  let obs = M3_noc.Fabric.obs t.fabric in
  if Obs.enabled obs then Obs.emit obs ev

(* Where [vpe] is in the suspend/resume life cycle; [Placed] without a
   scheduler. *)
let sched_state t vpe =
  match t.sched with None -> Sched.Placed | Some s -> Sched.state s ~vpe:vpe.v_id

let off_pe t vpe =
  match sched_state t vpe with Sched.Placed -> false | _ -> true

(* Every configured endpoint in the system sending into [vpe], as
   (owner vpe id, ep) — the senders that must be parked while [vpe] is
   off-PE and rebound when it lands. Collected before acting: the ext
   round-trips below block, and the table must not be mutated under an
   iteration. *)
let inbound_sgates t vpe =
  Hashtbl.fold
    (fun (vid, ep) cap acc ->
      if cap.c_valid then
        match cap.c_obj with
        | O_sgate sg when sg.sg_rgate.rg_vpe == vpe -> (vid, ep) :: acc
        | _ -> acc
      else acc)
    t.ep_caps []
  |> List.sort compare

(* Every live memory capability windowing the SPM of PE [pe] — at
   capture time [pe] still uniquely names the suspending VPE's SPM, so
   this is exactly the set whose [mem_pe] must follow the migration. *)
let inbound_mem_caps t ~pe =
  Hashtbl.fold
    (fun _ v acc ->
      if v.v_state = V_dead then acc
      else
        Hashtbl.fold
          (fun _ c acc2 ->
            if c.c_valid then
              match c.c_obj with
              | O_mem m when m.mem_pe = pe -> (v.v_id, c) :: acc2
              | _ -> acc2
            else acc2)
          v.v_caps acc)
    t.vpes []
  |> List.sort (fun (a, c1) (b, c2) -> compare (a, c1.c_sel) (b, c2.c_sel))
  |> List.map snd

(* Phase one of a suspension: flag the victim's DTU and arrange for
   the quiesce signal to come back as an [Op_quiesced]. Does nothing
   unless the VPE runs on its PE. *)
let begin_suspend t sched vpe =
  if vpe.v_state = V_running && Sched.suspend sched ~vpe:vpe.v_id then begin
    let dtu = Pe.dtu (Platform.pe t.platform vpe.v_pe) in
    Dtu.set_on_quiesce dtu (fun () ->
        Sched.request sched (Sched.Op_quiesced vpe.v_id));
    match Dtu.ext_suspend (kdtu t) ~target:vpe.v_pe with
    | Ok () -> ()
    | Error e ->
      Sched.settle sched ~vpe:vpe.v_id;
      Log.warn (fun m ->
          m "sched: suspend of vpe%d failed: %s" vpe.v_id
            (M3_dtu.Dtu_error.to_string e))
  end

(* Phase two, on [Op_quiesced]: park inbound senders, capture the
   architectural state, detach the process and free the PE. The VPE
   stays [Suspending] until the capture completes: the blocking
   [ext_capture] round-trip leaves it looking alive ([v_pe >= 0]) for
   thousands of cycles, and a gate activation that lands in that
   window must still see the suspension in flight (see
   [h_activate]). *)
let finish_suspend t sched vpe =
  let suspending =
    match Sched.state sched ~vpe:vpe.v_id with
    | Sched.Suspending _ -> true
    | Sched.Placed | Sched.Parked _ | Sched.Queued _ ->
      false (* killed mid-quiesce; [do_kill_vpe] already cleaned up *)
  in
  if suspending && vpe.v_state = V_running && vpe.v_pe >= 0 then begin
    let old_pe = vpe.v_pe in
    let pe_obj = Platform.pe t.platform old_pe in
    if Dtu.quiesced (Pe.dtu pe_obj) then begin
      let inbound = inbound_sgates t vpe in
      List.iter
        (fun (vid, ep) ->
          if vid <> vpe.v_id then
            match Hashtbl.find_opt t.vpes vid with
            | Some owner when owner.v_state = V_running && owner.v_pe >= 0
              -> (
              match Dtu.ext_park (kdtu t) ~target:owner.v_pe ~ep with
              | Ok () | Error _ -> ())
            | _ -> ())
        inbound;
      match Dtu.ext_capture (kdtu t) ~target:old_pe with
      | Error e ->
        Log.err (fun m ->
            m "sched: capture of vpe%d on pe%d failed: %s" vpe.v_id old_pe
              (M3_dtu.Dtu_error.to_string e))
      | Ok snapshot -> (
        let mem_caps = inbound_mem_caps t ~pe:old_pe in
        match
          (Pe.detach pe_obj, Dtu.take_parked (Pe.dtu pe_obj), vpe.v_state)
        with
        | Some proc, Some resume, V_running ->
          t.pe_owner.(old_pe) <- None;
          vpe.v_pe <- -1;
          emit_event t
            (Event.Vpe_suspend
               {
                 vpe = vpe.v_id;
                 pe = old_pe;
                 bytes = Dtu.snapshot_bytes snapshot;
               });
          Sched.captured sched ~vpe:vpe.v_id ~core:(Pe.core pe_obj)
            {
              img_from_pe = old_pe;
              img_snapshot = snapshot;
              img_process = proc;
              img_resume = resume;
              img_mem_caps = mem_caps;
            }
        | _ ->
          Log.warn (fun m ->
              m "sched: vpe%d vanished mid-suspend" vpe.v_id))
    end
  end;
  (* Captured or not, the suspension is over. *)
  Sched.settle sched ~vpe:vpe.v_id

(* Restore a queued VPE's image onto the free PE [pe_obj]. A dead VPE
   or a restore failure consumes the image. *)
let place t vid img pe_obj =
  match Hashtbl.find_opt t.vpes vid with
  | Some vpe when vpe.v_state = V_running -> (
    let p = Pe.id pe_obj in
    (* Claim the PE and repoint the VPE before the restore blocks, so
       a concurrent kill tears the right PE down. *)
    t.pe_owner.(p) <- Some vid;
    vpe.v_pe <- p;
    match Dtu.ext_restore (kdtu t) ~target:p img.img_snapshot with
    | Error e ->
      if t.pe_owner.(p) = Some vid then t.pe_owner.(p) <- None;
      discard img;
      Log.err (fun m ->
          m "sched: restore of vpe%d on pe%d failed: %s" vid p
            (M3_dtu.Dtu_error.to_string e))
    | Ok () when vpe.v_state <> V_running ->
      (* Killed while the restore was in flight. *)
      discard img;
      if t.pe_owner.(p) = Some vid then t.pe_owner.(p) <- None;
      (match Dtu.ext_reset (kdtu t) ~target:p with Ok () | Error _ -> ())
    | Ok () ->
      (match Hashtbl.find_opt t.envs vid with
      | Some env -> Env.migrate env ~pe:pe_obj
      | None -> ());
      (* Senders into the migrated VPE follow it to the new PE. *)
      List.iter
        (fun (ovid, ep) ->
          if ovid <> vid then
            match Hashtbl.find_opt t.vpes ovid with
            | Some owner when owner.v_state = V_running && owner.v_pe >= 0 -> (
              match Dtu.ext_rebind (kdtu t) ~target:owner.v_pe ~ep ~dst_pe:p with
              | Ok () | Error _ -> ())
            | _ -> ())
        (inbound_sgates t vpe);
      (* Memory capabilities windowing the migrated SPM. *)
      List.iter
        (fun c ->
          (match c.c_obj with
          | O_mem m -> m.mem_pe <- p
          | _ -> ());
          let owner = c.c_owner in
          if
            c.c_valid && owner.v_id <> vid
            && owner.v_state = V_running
            && owner.v_pe >= 0
          then
            List.iter
              (fun ep ->
                match
                  Dtu.ext_rebind (kdtu t) ~target:owner.v_pe ~ep ~dst_pe:p
                with
                | Ok () | Error _ -> ())
              c.c_activated)
        img.img_mem_caps;
      (* The victim's own restored endpoints still aim at
         pre-migration coordinates of peers that may have moved
         while it slept — re-aim them from the capability store
         (the single source of truth). *)
      let own =
        Hashtbl.fold
          (fun _ c acc ->
            if c.c_valid && c.c_activated <> [] then c :: acc else acc)
          vpe.v_caps []
        |> List.sort (fun a b -> compare a.c_sel b.c_sel)
      in
      List.iter
        (fun c ->
          match c.c_obj with
          | O_sgate sg ->
            let tgt = sg.sg_rgate.rg_vpe in
            List.iter
              (fun ep ->
                if tgt.v_state = V_running && tgt.v_pe >= 0 then (
                  match
                    Dtu.ext_rebind (kdtu t) ~target:p ~ep ~dst_pe:tgt.v_pe
                  with
                  | Ok () | Error _ -> ())
                else
                  match Dtu.ext_park (kdtu t) ~target:p ~ep with
                  | Ok () | Error _ -> ())
              c.c_activated
          | O_mem m ->
            List.iter
              (fun ep ->
                match Dtu.ext_rebind (kdtu t) ~target:p ~ep ~dst_pe:m.mem_pe with
                | Ok () | Error _ -> ())
              c.c_activated
          | _ -> ())
        own;
      Pe.attach pe_obj img.img_process;
      emit_event t
        (Event.Vpe_resume { vpe = vid; pe = p; from_pe = img.img_from_pe });
      (* Software half last: the continuation resumes on the new DTU
         only after all state has landed. *)
      img.img_resume (Pe.dtu pe_obj))
  | _ -> discard img

let schedulable_cores = [ Core_type.General_purpose; Core_type.Fft_accelerator ]

(* Drain run queues onto free PEs, per core class, preserving order. *)
let service_queue t sched =
  List.iter
    (fun core ->
      let rec loop () =
        let used i = t.pe_owner.(i) <> None in
        match Platform.find_pe t.platform ~core ~used with
        | None -> ()
        | Some pe_obj -> (
          match Sched.take sched ~core with
          | None -> ()
          | Some (vid, img) ->
            place t vid img pe_obj;
            loop ())
      in
      loop ())
    schedulable_cores

(* The sweep process. Parks on the scheduler waitq whenever nothing
   can progress; syscall handlers, the quiesce callback and VPE deaths
   all wake it, so an idle scheduler never keeps the engine alive. *)
let rec sched_sweep t sched =
  let rec drain () =
    match Sched.next_op sched with
    | None -> ()
    | Some op ->
      (match op with
      | Sched.Op_suspend id ->
        Option.iter (begin_suspend t sched) (Hashtbl.find_opt t.vpes id)
      | Sched.Op_quiesced id ->
        Option.iter (finish_suspend t sched) (Hashtbl.find_opt t.vpes id)
      | Sched.Op_resume id -> Sched.resume sched ~vpe:id);
      drain ()
  in
  drain ();
  service_queue t sched;
  if Sched.pending_ops sched = 0 then Sched.wait_work sched;
  sched_sweep t sched

(* --- kernel <-> service channel ------------------------------------- *)

(* Forward reference to the syscall dispatcher (defined after the
   handlers): [service_request] services [Activate] syscalls
   re-entrantly while blocked on a service reply. *)
let reentrant_syscall : (t -> Endpoint.message -> unit) ref =
  ref (fun _ _ -> assert false)

let service_request t (srv : srv_obj) ~payload =
  let rg = srv.srv_krgate in
  Env.drop_stale t.fabric (kdtu t) ~ep:kep_reply;
  dtu_exn
    (Dtu.config_local (kdtu t) ~ep:kep_service
       (Endpoint.Send
          {
            dst_pe = rg.rg_vpe.v_pe;
            dst_ep = rg.rg_ep;
            label = 0L;
            msg_order = rg.rg_slot_order;
            credits = Endpoint.Unlimited;
          }));
  dtu_exn (Dtu.send (kdtu t) ~ep:kep_service ~payload ~reply:(kep_reply, 0L) ());
  (* While blocked on the service's reply, keep watching the syscall
     channel. An [Activate] may come from the service itself, needing
     an endpoint to finish the very work we are waiting for (e.g.
     m3fs flushing cache invalidation notifies mid-request) — handling
     it here breaks that circular wait. Every other syscall is
     deferred to the main loop in arrival order: its handler could
     nest another service round-trip, which this channel cannot. *)
  let deadline = Env.watchdog ~bound:service_watchdog t.fabric in
  let rec await () =
    match Dtu.wait ?deadline (kdtu t) ~eps:[ kep_reply; kep_syscall ] with
    | None -> None
    | Some msg when msg.ep = kep_reply -> Some msg
    | Some msg ->
      let is_activate =
        try
          Proto.opcode_of_int (R.u8 (R.of_bytes msg.payload))
          = Some Proto.Activate
        with Msgbuf.R.Underflow -> false
      in
      if is_activate then !reentrant_syscall t msg
      else Queue.add msg t.deferred_syscalls;
      await ()
  in
  let reply_msg = await () in
  match reply_msg with
  | Some msg ->
    Dtu.ack (kdtu t) ~ep:kep_reply ~slot:msg.slot;
    msg.payload
  | None ->
    Log.warn (fun m ->
        m "kernel: service %s request timed out after %d cycles"
          srv.srv_name service_watchdog);
    let w = W.create () in
    W.u64 w (Errno.to_int Errno.E_timeout);
    W.contents w

(* --- syscall handlers ------------------------------------------------ *)

type action =
  | Reply of W.t
  | Deferred
  | No_reply

let reply_err errno =
  let w = W.create () in
  W.u64 w (Errno.to_int errno);
  Reply w

let reply_ok fill =
  let w = W.create () in
  W.u64 w (Errno.to_int Errno.E_ok);
  fill w;
  Reply w

let perm_of_int v =
  let p = ref Perm.none in
  if v land 1 <> 0 then p := Perm.union !p Perm.r;
  if v land 2 <> 0 then p := Perm.union !p Perm.w;
  if v land 4 <> 0 then p := Perm.union !p Perm.x;
  !p

let h_create_vpe t requester r =
  let sel = R.u64 r in
  let mem_sel = R.u64 r in
  let name = R.str r in
  match Proto.core_kind_of_int (R.u8 r) with
  | None -> reply_err Errno.E_inv_args
  | Some core ->
    let account =
      match Hashtbl.find_opt t.accounts requester.v_id with
      | Some a -> a
      | None -> Account.create ()
    in
    (match create_vpe_internal t ~name ~core ~account with
    | Error e -> reply_err e
    | Ok vpe ->
      (* The requester gets the VPE capability and a memory capability
         for the child's SPM, enabling application loading. *)
      (match install_std_caps t vpe ~holder:(Some (requester, sel, mem_sel)) with
      | Ok () ->
        reply_ok (fun w ->
            W.u64 w vpe.v_id;
            W.u64 w vpe.v_pe)
      | Error e ->
        do_kill_vpe t vpe ~cause:(C_exit (-1));
        reply_err e))

let h_vpe_start t requester r =
  let vpe_sel = R.u64 r in
  let prog = R.str r in
  let args = R.bytes r in
  match get requester ~sel:vpe_sel with
  | Error e -> reply_err e
  | Ok { c_obj = O_vpe vpe; _ } when vpe.v_state = V_init -> (
    match Program.find t.engine prog with
    | None -> reply_err Errno.E_not_found
    | Some program ->
      start_program t vpe program ~args;
      reply_ok (fun _ -> ()))
  | Ok { c_obj = O_vpe _; _ } -> reply_err Errno.E_vpe_gone
  | Ok _ -> reply_err Errno.E_inv_args

let h_vpe_wait _t requester r ~slot =
  let vpe_sel = R.u64 r in
  match get requester ~sel:vpe_sel with
  | Error e -> reply_err e
  | Ok { c_obj = O_vpe vpe; _ } -> (
    match (vpe.v_cause, vpe.v_exit_code) with
    | Some (C_abort _), _ -> reply_err Errno.E_vpe_dead
    | _, Some code -> reply_ok (fun w -> W.u64 w code)
    | _, None ->
      vpe.v_waiters <- (kep_syscall, slot) :: vpe.v_waiters;
      Deferred)
  | Ok _ -> reply_err Errno.E_inv_args

let h_vpe_exit t requester r =
  let code = R.u64 r in
  do_kill_vpe t requester ~cause:(C_exit code);
  No_reply

(* Suspend a child VPE (pool shrink): hand the request to the sweep.
   Only a started VPE on its PE can be suspended. *)
let h_vpe_suspend t requester r =
  match t.sched with
  | None -> reply_err Errno.E_inv_args
  | Some sched -> (
    let vpe_sel = R.u64 r in
    match get requester ~sel:vpe_sel with
    | Error e -> reply_err e
    | Ok { c_obj = O_vpe vpe; _ } ->
      if vpe.v_id = requester.v_id then reply_err Errno.E_inv_args
      else if vpe.v_state <> V_running then reply_err Errno.E_vpe_gone
      else if not (Sched.suspendable sched ~vpe:vpe.v_id) then
        reply_err Errno.E_exists
      else begin
        Sched.request sched (Sched.Op_suspend vpe.v_id);
        reply_ok (fun _ -> ())
      end
    | Ok _ -> reply_err Errno.E_inv_args)

(* Resume a suspended child (pool grow). Idempotent: resuming a VPE
   that is running or already queued succeeds without effect. *)
let h_vpe_resume t requester r =
  match t.sched with
  | None -> reply_err Errno.E_inv_args
  | Some sched -> (
    let vpe_sel = R.u64 r in
    match get requester ~sel:vpe_sel with
    | Error e -> reply_err e
    | Ok { c_obj = O_vpe vpe; _ } ->
      if vpe.v_state = V_dead then reply_err Errno.E_vpe_dead
      else begin
        Sched.request sched (Sched.Op_resume vpe.v_id);
        reply_ok (fun _ -> ())
      end
    | Ok _ -> reply_err Errno.E_inv_args)

(* Where is a child in the suspend/resume life cycle? Lets a pool
   dispatcher wait for its initial parking to settle before opening
   the doors, and lets tests synchronise on the park instead of
   sleeping. *)
let h_vpe_sched_state t requester r =
  match t.sched with
  | None -> reply_err Errno.E_inv_args
  | Some sched -> (
    let vpe_sel = R.u64 r in
    match get requester ~sel:vpe_sel with
    | Error e -> reply_err e
    | Ok { c_obj = O_vpe vpe; _ } ->
      if vpe.v_state = V_dead then reply_err Errno.E_vpe_dead
      else
        let state =
          match Sched.state sched ~vpe:vpe.v_id with
          | Sched.Placed -> 0
          | Sched.Suspending _ -> 1
          | Sched.Parked _ -> 2
          | Sched.Queued _ -> 3
        in
        reply_ok (fun w -> W.u64 w state)
    | Ok _ -> reply_err Errno.E_inv_args)

let h_create_rgate t requester r =
  let sel = R.u64 r in
  let ep = R.u64 r in
  let buf_addr = R.u64 r in
  let slot_order = R.u64 r in
  let slot_count = R.u64 r in
  let config = Platform.config t.platform in
  if
    ep < Env.first_free_ep || ep >= config.ep_count || slot_order < 4
    || slot_order > 14 || slot_count <= 0 || buf_addr < 0
    || buf_addr + (slot_count * (1 lsl slot_order)) > config.spm_size
  then reply_err Errno.E_inv_args
  else begin
    let rgate =
      {
        rg_vpe = requester;
        rg_ep = ep;
        rg_buf_addr = buf_addr;
        rg_slot_order = slot_order;
        rg_slot_count = slot_count;
      }
    in
    match insert requester ~sel (O_rgate rgate) ~parent:None with
    | Error e -> reply_err e
    | Ok cap ->
      (* Unbind whatever was on that endpoint before, and record the
         activation — otherwise revoking the receive-gate capability
         would leak the endpoint slot forever. *)
      (match Hashtbl.find_opt t.ep_caps (requester.v_id, ep) with
      | Some old ->
        old.c_activated <- List.filter (fun e -> e <> ep) old.c_activated
      | None -> ());
      dtu_exn
        (Dtu.ext_config (kdtu t) ~target:requester.v_pe ~ep
           (Endpoint.Receive { buf_addr; slot_order; slot_count }));
      cap.c_activated <- ep :: cap.c_activated;
      Hashtbl.replace t.ep_caps (requester.v_id, ep) cap;
      reply_ok (fun _ -> ())
  end

let h_create_sgate _t requester r =
  let sel = R.u64 r in
  let rgate_sel = R.u64 r in
  let label = R.i64 r in
  let credits = Proto.credits_of_int (R.u64 r) in
  match get requester ~sel:rgate_sel with
  | Error e -> reply_err e
  | Ok ({ c_obj = O_rgate rg; _ } as rcap) -> (
    match
      derive_to ~cap:rcap ~dst:requester ~dst_sel:sel
        (O_sgate { sg_rgate = rg; sg_label = label; sg_credits = credits })
    with
    | Ok _ -> reply_ok (fun _ -> ())
    | Error e -> reply_err e)
  | Ok _ -> reply_err Errno.E_inv_args

let h_req_mem t requester r =
  let sel = R.u64 r in
  let size = R.u64 r in
  let perm = perm_of_int (R.u64 r) in
  if size <= 0 then reply_err Errno.E_inv_args
  else
    match Alloc.alloc t.kmem ~size ~align:4096 with
    | None -> reply_err Errno.E_no_space
    | Some addr -> (
      Hashtbl.replace t.kmem_roots addr size;
      match
        insert requester ~sel
          (O_mem
             {
               mem_pe = Platform.dram_node t.platform;
               mem_addr = addr;
               mem_size = size;
               mem_perm = perm;
             })
          ~parent:None
      with
      | Ok _ -> reply_ok (fun w -> W.u64 w addr)
      | Error e ->
        Hashtbl.remove t.kmem_roots addr;
        Alloc.free t.kmem ~addr ~size;
        reply_err e)

let h_derive_mem _t requester r =
  let src_sel = R.u64 r in
  let dst_sel = R.u64 r in
  let off = R.u64 r in
  let size = R.u64 r in
  let perm = perm_of_int (R.u64 r) in
  match get requester ~sel:src_sel with
  | Error e -> reply_err e
  | Ok ({ c_obj = O_mem m; _ } as cap) ->
    if off < 0 || size <= 0 || off + size > m.mem_size then
      reply_err Errno.E_inv_args
    else if not (Perm.subset perm ~of_:m.mem_perm) then
      reply_err Errno.E_no_perm
    else (
      match
        derive_to ~cap ~dst:requester ~dst_sel
          (O_mem
             {
               mem_pe = m.mem_pe;
               mem_addr = m.mem_addr + off;
               mem_size = size;
               mem_perm = perm;
             })
      with
      | Ok _ -> reply_ok (fun _ -> ())
      | Error e -> reply_err e)
  | Ok _ -> reply_err Errno.E_inv_args

let h_activate t requester r =
  let sel = R.u64 r in
  let ep = R.u64 r in
  let config = Platform.config t.platform in
  if ep < Env.first_free_ep || ep >= config.ep_count then
    reply_err Errno.E_inv_args
  else
    match get requester ~sel with
    | Error e -> reply_err e
    | Ok cap ->
      let ep_config =
        match cap.c_obj with
        | O_sgate sg ->
          let rg = sg.sg_rgate in
          Some
            (Endpoint.Send
               {
                 dst_pe = rg.rg_vpe.v_pe;
                 dst_ep = rg.rg_ep;
                 label = sg.sg_label;
                 msg_order = rg.rg_slot_order;
                 credits = sg.sg_credits;
               })
        | O_mem m ->
          Some
            (Endpoint.Memory
               {
                 dst_pe = m.mem_pe;
                 base = m.mem_addr;
                 size = m.mem_size;
                 perm = m.mem_perm;
               })
        | O_vpe _ | O_rgate _ | O_srv _ | O_sess _ -> None
      in
      (match ep_config with
      | None -> reply_err Errno.E_inv_args
      | Some ep_config ->
        (* Unbind whatever was on that endpoint before. *)
        (match Hashtbl.find_opt t.ep_caps (requester.v_id, ep) with
        | Some old ->
          old.c_activated <- List.filter (fun e -> e <> ep) old.c_activated
        | None -> ());
        dtu_exn (Dtu.ext_config (kdtu t) ~target:requester.v_pe ~ep ep_config);
        (match cap.c_obj with
        | O_sgate sg
          when sg.sg_rgate.rg_vpe.v_state = V_running
               && off_pe t sg.sg_rgate.rg_vpe ->
          (* Destination is suspended — or mid-suspension, its capture
             still in flight: hold the endpoint; the resume rebinds it
             at the new coordinates. *)
          let rg_vpe = sg.sg_rgate.rg_vpe in
          (match Dtu.ext_park (kdtu t) ~target:requester.v_pe ~ep with
          | Ok () | Error _ -> ());
          (* The destination may have landed while we blocked in the
             park (this endpoint was not yet in [ep_caps], so the
             placement's rebind sweep missed it): repoint it now. *)
          if rg_vpe.v_pe >= 0 && not (off_pe t rg_vpe) then
            ignore
              (Dtu.ext_rebind (kdtu t) ~target:requester.v_pe ~ep
                 ~dst_pe:rg_vpe.v_pe)
        | _ -> ());
        cap.c_activated <- ep :: cap.c_activated;
        Hashtbl.replace t.ep_caps (requester.v_id, ep) cap;
        reply_ok (fun _ -> ()))

(* The paper forbids exchanging receive capabilities (§4.5.4); send,
   memory, session and VPE capabilities travel freely. *)
let exchangeable = function
  | O_sgate _ | O_mem _ | O_sess _ | O_vpe _ -> true
  | O_rgate _ | O_srv _ -> false

let h_exchange _t requester r =
  let vpe_sel = R.u64 r in
  let own_sel = R.u64 r in
  let other_sel = R.u64 r in
  let obtain = R.u8 r = 1 in
  match get requester ~sel:vpe_sel with
  | Error e -> reply_err e
  | Ok { c_obj = O_vpe other; _ } when obtain && other.v_state = V_dead ->
    (* A dead VPE published nothing and never will: no retry can help. *)
    reply_err Errno.E_vpe_gone
  | Ok { c_obj = O_vpe other; _ } ->
    let src_vpe, src_sel, dst_vpe, dst_sel =
      if obtain then (other, other_sel, requester, own_sel)
      else (requester, own_sel, other, other_sel)
    in
    (match get src_vpe ~sel:src_sel with
    | Error e -> reply_err e
    | Ok cap when exchangeable cap.c_obj -> (
      match derive_to ~cap ~dst:dst_vpe ~dst_sel cap.c_obj with
      | Ok _ -> reply_ok (fun _ -> ())
      | Error e -> reply_err e)
    | Ok _ -> reply_err Errno.E_no_perm)
  | Ok _ -> reply_err Errno.E_inv_args

let h_create_srv t requester r =
  let sel = R.u64 r in
  let name = R.str r in
  let krgate_sel = R.u64 r in
  let crgate_sel = R.u64 r in
  if Hashtbl.mem t.services name then reply_err Errno.E_exists
  else
    match (get requester ~sel:krgate_sel, get requester ~sel:crgate_sel) with
    | Ok { c_obj = O_rgate krg; _ }, Ok { c_obj = O_rgate crg; _ } ->
      let srv =
        {
          srv_name = name;
          srv_vpe = requester;
          srv_krgate = krg;
          srv_crgate = crg;
          srv_next_ident = 1L;
        }
      in
      (match insert requester ~sel (O_srv srv) ~parent:None with
      | Error e -> reply_err e
      | Ok cap ->
        Hashtbl.replace t.services name (srv, cap);
        Log.debug (fun m -> m "service '%s' registered by vpe%d" name requester.v_id);
        reply_ok (fun _ -> ()))
    | Error e, _ | _, Error e -> reply_err e
    | Ok _, Ok _ -> reply_err Errno.E_inv_args

let h_open_sess t requester r =
  let sess_sel = R.u64 r in
  let sgate_sel = R.u64 r in
  let name = R.str r in
  let arg = R.u64 r in
  match Hashtbl.find_opt t.services name with
  | None -> reply_err Errno.E_not_found
  | Some (srv, srv_cap) ->
    let w = W.create () in
    W.u8 w (Proto.srv_opcode_to_int Proto.Srv_open);
    W.u64 w arg;
    let answer = service_request t srv ~payload:(W.contents w) in
    let ar = R.of_bytes answer in
    (match Errno.of_int (R.u64 ar) with
    | Errno.E_ok ->
      let ident = R.i64 ar in
      let sess = O_sess { sess_srv = srv; sess_ident = ident } in
      let sgate =
        O_sgate
          {
            sg_rgate = srv.srv_crgate;
            sg_label = ident;
            (* one outstanding request per session: client calls are
               synchronous, and total credits must not exceed the
               service ringbuffer *)
            sg_credits = Endpoint.Credits 1;
          }
      in
      (match
         ( derive_to ~cap:srv_cap ~dst:requester ~dst_sel:sess_sel sess,
           derive_to ~cap:srv_cap ~dst:requester ~dst_sel:sgate_sel sgate )
       with
      | Ok _, Ok _ -> reply_ok (fun _ -> ())
      | Error e, _ | _, Error e -> reply_err e)
    | e -> reply_err e)

let h_exchange_sess t requester r =
  let sess_sel = R.u64 r in
  let dst_sel = R.u64 r in
  let max_caps = R.u64 r in
  let args = R.bytes r in
  match get requester ~sel:sess_sel with
  | Error e -> reply_err e
  | Ok { c_obj = O_sess sess; _ } ->
    let w = W.create () in
    W.u8 w (Proto.srv_opcode_to_int Proto.Srv_exchange);
    W.i64 w sess.sess_ident;
    W.bytes w args;
    let answer = service_request t sess.sess_srv ~payload:(W.contents w) in
    let ar = R.of_bytes answer in
    (match Errno.of_int (R.u64 ar) with
    | Errno.E_ok ->
      let out = R.bytes ar in
      let ncaps = R.u64 ar in
      if ncaps > max_caps then reply_err Errno.E_inv_args
      else begin
        (* Each descriptor names a memory capability in the service's
           own table plus a sub-range to derive for the client. *)
        let rec install i =
          if i = ncaps then Ok ()
          else begin
            let srv_sel = R.u64 ar in
            let off = R.u64 ar in
            let size = R.u64 ar in
            let perm = perm_of_int (R.u64 ar) in
            match get sess.sess_srv.srv_vpe ~sel:srv_sel with
            | Ok ({ c_obj = O_mem m; _ } as cap)
              when off >= 0 && size > 0 && off + size <= m.mem_size
                   && Perm.subset perm ~of_:m.mem_perm -> (
              match
                derive_to ~cap ~dst:requester ~dst_sel:(dst_sel + i)
                  (O_mem
                     {
                       mem_pe = m.mem_pe;
                       mem_addr = m.mem_addr + off;
                       mem_size = size;
                       mem_perm = perm;
                     })
              with
              | Ok _ -> install (i + 1)
              | Error e -> Error e)
            | Ok _ -> Error Errno.E_inv_args
            | Error e -> Error e
          end
        in
        match install 0 with
        | Ok () ->
          reply_ok (fun w ->
              W.u64 w ncaps;
              W.bytes w out)
        | Error e -> reply_err e
      end
    | e -> reply_err e)
  | Ok _ -> reply_err Errno.E_inv_args

(* Session-scoped delegation: derive an exchangeable capability of the
   requester into the table of the service VPE behind one of the
   requester's sessions. The kernel picks the service-side selector —
   from a reserved high range, scanned deterministically, so it never
   collides with selectors the service allocates itself — and the new
   capability is a child of the requester's, so the requester dying
   (or revoking) pulls it back out of the service automatically. *)
let delegate_sel_base = 1 lsl 20

let h_delegate_sess _t requester r =
  let sess_sel = R.u64 r in
  let own_sel = R.u64 r in
  match get requester ~sel:sess_sel with
  | Error e -> reply_err e
  | Ok { c_obj = O_sess sess; _ } -> (
    match get requester ~sel:own_sel with
    | Error e -> reply_err e
    | Ok cap when exchangeable cap.c_obj -> (
      let dst = sess.sess_srv.srv_vpe in
      let rec pick sel =
        if Hashtbl.mem dst.v_caps sel then pick (sel + 1) else sel
      in
      let dst_sel = pick delegate_sel_base in
      match derive_to ~cap ~dst ~dst_sel cap.c_obj with
      | Ok _ -> reply_ok (fun w -> W.u64 w dst_sel)
      | Error e -> reply_err e)
    | Ok _ -> reply_err Errno.E_no_perm)
  | Ok _ -> reply_err Errno.E_inv_args

let h_revoke t requester r =
  let sel = R.u64 r in
  match get requester ~sel with
  | Error e -> reply_err e
  | Ok cap ->
    revoke_cap t cap;
    reply_ok (fun _ -> ())

let dispatch t requester r ~slot =
  match Proto.opcode_of_int (R.u8 r) with
  | None -> reply_err Errno.E_inv_args
  | Some op -> (
    t.syscalls_handled <- t.syscalls_handled + 1;
    match op with
    | Proto.Noop -> reply_ok (fun _ -> ())
    | Proto.Create_vpe -> h_create_vpe t requester r
    | Proto.Vpe_start -> h_vpe_start t requester r
    | Proto.Vpe_wait -> h_vpe_wait t requester r ~slot
    | Proto.Vpe_exit -> h_vpe_exit t requester r
    | Proto.Create_rgate -> h_create_rgate t requester r
    | Proto.Create_sgate -> h_create_sgate t requester r
    | Proto.Req_mem -> h_req_mem t requester r
    | Proto.Derive_mem -> h_derive_mem t requester r
    | Proto.Activate -> h_activate t requester r
    | Proto.Exchange -> h_exchange t requester r
    | Proto.Create_srv -> h_create_srv t requester r
    | Proto.Open_sess -> h_open_sess t requester r
    | Proto.Exchange_sess -> h_exchange_sess t requester r
    | Proto.Revoke -> h_revoke t requester r
    | Proto.Vpe_suspend -> h_vpe_suspend t requester r
    | Proto.Vpe_resume -> h_vpe_resume t requester r
    | Proto.Vpe_sched_state -> h_vpe_sched_state t requester r
    | Proto.Delegate_sess -> h_delegate_sess t requester r)

(* --- kernel main loop ------------------------------------------------ *)

let handle_syscall t (msg : Endpoint.message) =
  let dtu = kdtu t in
  Process.wait Cost_model.kernel_dispatch;
  match Hashtbl.find_opt t.vpes (Int64.to_int msg.header.label) with
  | None ->
    Log.warn (fun m -> m "syscall with unknown label %Ld" msg.header.label);
    Dtu.ack dtu ~ep:kep_syscall ~slot:msg.slot
  | Some requester -> (
    let action =
      try dispatch t requester (R.of_bytes msg.payload) ~slot:msg.slot
      with Msgbuf.R.Underflow -> reply_err Errno.E_inv_args
    in
    match action with
    | Reply w ->
      Process.wait Cost_model.kernel_reply_marshal;
      (match Dtu.reply dtu ~ep:kep_syscall ~slot:msg.slot ~payload:(W.contents w) with
      | Ok () -> ()
      | Error e ->
        Log.err (fun m ->
            m "syscall reply failed: %s" (M3_dtu.Dtu_error.to_string e)))
    | Deferred -> () (* slot stays occupied; replied on VPE exit *)
    | No_reply -> Dtu.ack dtu ~ep:kep_syscall ~slot:msg.slot)

let () = reentrant_syscall := handle_syscall

let kernel_loop t =
  let dtu = kdtu t in
  let rec loop () =
    let msg =
      match Queue.take_opt t.deferred_syscalls with
      | Some msg -> msg
      | None -> Dtu.wait_msg dtu ~ep:kep_syscall
    in
    handle_syscall t msg;
    loop ()
  in
  loop ()

let boot t =
  let booted = Process.Ivar.create () in
  let dtu = kdtu t in
  dtu_exn
    (Dtu.config_local dtu ~ep:kep_syscall
       (Endpoint.Receive
          {
            buf_addr = syscall_buf_addr;
            slot_order = Proto.syscall_msg_order;
            slot_count = Proto.kernel_rbuf_slots;
          }));
  (* Service replies can carry a batch of capability descriptors;
     size the kernel's reply slots accordingly. *)
  dtu_exn
    (Dtu.config_local dtu ~ep:kep_reply
       (Endpoint.Receive
          { buf_addr = reply_buf_addr; slot_order = 11; slot_count = 4 }));
  if has_notify_eps t then
    dtu_exn
      (Dtu.config_local dtu ~ep:kep_notify_reply
         (Endpoint.Receive
            { buf_addr = notify_buf_addr; slot_order = 9; slot_count = 2 }));
  ignore
    (Pe.spawn t.pe ~name:"kernel" (fun () ->
         (* NoC-level isolation: downgrade every application PE. *)
         for i = 0 to Platform.pe_count t.platform - 1 do
           if i <> kernel_pe_id t then
             dtu_exn (Dtu.ext_set_privileged dtu ~target:i false)
         done;
         Process.Ivar.fill booted ();
         kernel_loop t));
  (match t.sched with
  | None -> ()
  | Some sched ->
    ignore (Pe.spawn t.pe ~name:"kernel:sched" (fun () -> sched_sweep t sched)));
  booted

let launch t ~name ~account ?(args = Bytes.empty) program =
  let iv = Process.Ivar.create () in
  ignore
    (Process.spawn t.engine ~name:("kload:" ^ name) (fun () ->
         match create_vpe_internal t ~name ~core:Core_type.General_purpose ~account with
         | Error e ->
           Log.err (fun m -> m "launch %s: %s" name (Errno.to_string e));
           Process.Ivar.fill iv (-1)
         | Ok vpe -> (
           (match install_std_caps t vpe ~holder:None with
           | Ok () -> ()
           | Error e ->
             Log.err (fun m -> m "launch %s: caps: %s" name (Errno.to_string e)));
           let exit = exit_ivar t vpe.v_id in
           start_program t vpe program ~args;
           Process.Ivar.fill iv (Process.Ivar.read exit))));
  iv

let exit_code t ~vpe_id = Hashtbl.find_opt t.exits vpe_id

let service_registered t ~name = Hashtbl.mem t.services name

let vpe_count t =
  Hashtbl.fold (fun _ v acc -> if v.v_state <> V_dead then acc + 1 else acc)
    t.vpes 0

let free_pes t =
  let n = ref 0 in
  Array.iteri
    (fun i o ->
      if o = None && not (Platform.is_quarantined t.platform i) then incr n)
    t.pe_owner;
  !n

let syscalls_handled t = t.syscalls_handled
let kills_ignored t = t.kills_ignored

let ep_entries t ~vpe_id =
  Hashtbl.fold
    (fun (vid, _) _ acc -> if vid = vpe_id then acc + 1 else acc)
    t.ep_caps 0

let dram_avail t = Alloc.avail t.kmem

let find_vpe t ~vpe_id = Hashtbl.find_opt t.vpes vpe_id

let suspended_count t = Option.fold ~none:0 ~some:Sched.parked t.sched
