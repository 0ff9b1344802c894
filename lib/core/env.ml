module Account = M3_sim.Account
module Process = M3_sim.Process
module Engine = M3_sim.Engine
module Pe = M3_hw.Pe
module Cost_model = M3_hw.Cost_model
module Fabric = M3_noc.Fabric

let ep_syscall_send = 0
let ep_syscall_reply = 1
let first_free_ep = 2

let sel_vpe = 0
let sel_mem = 1
let first_free_sel = 2

let reply_buf_addr = 0x100
let data_start = 0x500

type ep_user = {
  eu_sel : int;
  mutable eu_ep : int option;
}

type ep_slot =
  | Ep_free
  | Ep_reserved
  | Ep_used of ep_user

type t = {
  uid : int;
  mutable pe : Pe.t;
  mutable dtu : M3_dtu.Dtu.t;
  engine : Engine.t;
  fabric : Fabric.t;
  kernel_pe : int;
  vpe_id : int;
  name : string;
  image_bytes : int;
  args : Bytes.t;
  account : Account.t;
  mutable next_sel : int;
  mutable spm_top : int;
  ep_slots : ep_slot array;
  mutable ep_clock : int;
  mutable spin_transfers : bool;
}

(* Uids key process-global state tables (VFS mounts, file notify
   state, EP counters), so they stay unique across every simulation in
   the process. *)
let next_uid = ref 0

let create ~pe ~fabric ~kernel_pe ~vpe_id ~name ~image_bytes ~args ~account =
  let general_eps = M3_dtu.Dtu.ep_count (Pe.dtu pe) - first_free_ep in
  incr next_uid;
  {
    uid = !next_uid;
    pe;
    dtu = Pe.dtu pe;
    engine = Pe.engine pe;
    fabric;
    kernel_pe;
    vpe_id;
    name;
    image_bytes;
    args;
    account;
    next_sel = first_free_sel;
    spm_top = data_start;
    ep_slots = Array.make general_eps Ep_free;
    ep_clock = 0;
    spin_transfers = false;
  }

(* The kernel retargets a migrated VPE's environment before firing its
   quiesce continuation, so libm3 code that cached [t] keeps working —
   only [t.pe]/[t.dtu] change under it. *)
let migrate t ~pe =
  t.pe <- pe;
  t.dtu <- Pe.dtu pe

let charge t cat n =
  if n > 0 then begin
    Account.charge t.account cat n;
    Process.wait n;
    (* Suspend checkpoint: compute-bound code that never blocks on the
       DTU still quiesces at its next accounting boundary. *)
    if M3_dtu.Dtu.suspend_pending t.dtu then
      ignore (M3_dtu.Dtu.quiesce_point t.dtu)
  end

let charge_only t cat n = if n > 0 then Account.charge t.account cat n

let charge_marshal t bytes =
  charge t Account.Os (Cost_model.marshal_per_word * ((bytes + 7) / 8))

let timed t cat f =
  let t0 = Engine.now t.engine in
  let result = f () in
  charge_only t cat (Engine.now t.engine - t0);
  result

let alloc_sel t =
  let sel = t.next_sel in
  t.next_sel <- sel + 1;
  sel

let alloc_spm t ~size =
  if size <= 0 then invalid_arg "Env.alloc_spm: size must be positive";
  let base = (t.spm_top + 7) land lnot 7 in
  if base + size > M3_mem.Store.size (Pe.spm t.pe) then
    raise (Errno.Error Errno.E_no_space);
  t.spm_top <- base + size;
  base

let msg_send_latency t ~dst ~bytes =
  Fabric.pure_latency t.fabric ~src:(Pe.id t.pe) ~dst
    ~bytes:(M3_dtu.Header.size + bytes)
