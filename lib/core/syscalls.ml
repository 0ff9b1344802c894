module Account = M3_sim.Account
module Engine = M3_sim.Engine
module Dtu = M3_dtu.Dtu
module Cost_model = M3_hw.Cost_model
module Fabric = M3_noc.Fabric
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module W = Msgbuf.W
module R = Msgbuf.R

type 'a result_ = ('a, Errno.t) result

let src = Logs.Src.create "m3.syscalls" ~doc:"libm3 syscall client"

module Log = (val Logs.src_log src : Logs.LOG)

let dtu_err e = Errno.E_dtu (M3_dtu.Dtu_error.to_string e)

(* The client half of a request/response round-trip, shared by
   syscalls and service calls: block for the reply on [ep] — under the
   watchdog, unless the call is [idle] — then split the time blocked
   since [t0] into the two NoC crossings (Xfer) and the server's share
   (Os), and ack the reply slot. [None] when the watchdog expired. *)
let await_reply ?(idle = false) (env : Env.t) ~ep ~t0 ~sent =
  let deadline = if idle then None else Env.watchdog env.fabric in
  match Dtu.wait ?deadline env.dtu ~eps:[ ep ] with
  | None -> None
  | Some msg ->
    let blocked = Engine.now env.engine - t0 in
    (* The kernel-distance estimate is exact for syscalls and close
       for service calls: services sit next to the kernel on the
       mesh. *)
    let xfer =
      min blocked
        (Env.msg_send_latency env ~dst:env.kernel_pe ~bytes:sent
        + Env.msg_send_latency env ~dst:env.kernel_pe
            ~bytes:(Bytes.length msg.payload))
    in
    Env.charge_only env Account.Xfer xfer;
    (* For calls that block until an external event (vpe_wait), the
       waiting time is idle, not OS work. *)
    if not idle then Env.charge_only env Account.Os (blocked - xfer);
    Dtu.ack env.dtu ~ep ~slot:msg.slot;
    Some msg

(* Issues one syscall: marshal, send via EP 0, block for the reply on
   EP 1, unmarshal. *)
let syscall ?(idle_wait = false) (env : Env.t) op fill =
  let obs = Fabric.obs env.fabric in
  let pe = M3_hw.Pe.id env.pe in
  let t_enter = Engine.now env.engine in
  if Obs.enabled obs then
    Obs.emit obs
      (Event.Syscall_enter
         { pe; vpe = env.vpe_id; op = Proto.opcode_name op });
  let finish ok result =
    if Obs.enabled obs then
      Obs.emit obs
        (Event.Syscall_exit
           {
             pe;
             vpe = env.vpe_id;
             op = Proto.opcode_name op;
             ok;
             cycles = Engine.now env.engine - t_enter;
           });
    result
  in
  let w = W.create () in
  W.u8 w (Proto.opcode_to_int op);
  fill w;
  Env.charge env Account.Os Cost_model.syscall_marshal;
  Env.charge_marshal env (W.size w);
  Env.charge env Account.Os Cost_model.syscall_program_dtu;
  let payload = W.contents w in
  Env.drop_stale env.fabric env.dtu ~ep:Env.ep_syscall_reply;
  let t0 = Engine.now env.engine in
  match
    Dtu.send env.dtu ~ep:Env.ep_syscall_send ~payload
      ~reply:(Env.ep_syscall_reply, 0L) ()
  with
  | Error e -> finish false (Error (dtu_err e))
  | Ok () -> (
    (* vpe_wait legitimately blocks for as long as the child runs, so
       the watchdog only guards calls the kernel answers promptly. *)
    match
      await_reply ~idle:idle_wait env ~ep:Env.ep_syscall_reply ~t0
        ~sent:(Bytes.length payload)
    with
    | None ->
      Log.warn (fun m ->
          m "vpe%d: syscall %s timed out after %d cycles" env.vpe_id
            (Proto.opcode_name op) Env.client_watchdog);
      finish false (Error Errno.E_timeout)
    | Some msg ->
    Env.charge env Account.Os (Cost_model.wakeup + Cost_model.syscall_unmarshal);
    Env.charge_marshal env (Bytes.length msg.payload);
    let r = R.of_bytes msg.payload in
    (match Errno.of_int (R.u64 r) with
    | Errno.E_ok -> finish true (Ok r)
    | e ->
      Log.debug (fun m ->
          m "vpe%d: syscall %s failed: %s" env.vpe_id (Proto.opcode_name op)
            (Errno.to_string e));
      finish false (Error e)))

let unit_reply = function Ok (_ : R.t) -> Ok () | Error e -> Error e

let noop env = unit_reply (syscall env Proto.Noop (fun _ -> ()))

let create_vpe env ~name ~core =
  let sel = Env.alloc_sel env in
  let mem_sel = Env.alloc_sel env in
  match
    syscall env Proto.Create_vpe (fun w ->
        W.u64 w sel;
        W.u64 w mem_sel;
        W.str w name;
        W.u8 w (Proto.core_kind_to_int core))
  with
  | Error e -> Error e
  | Ok r ->
    let vpe_id = R.u64 r in
    let pe_id = R.u64 r in
    Ok (sel, mem_sel, vpe_id, pe_id)

let vpe_start env ~vpe_sel ~prog ~args =
  unit_reply
    (syscall env Proto.Vpe_start (fun w ->
         W.u64 w vpe_sel;
         W.str w prog;
         W.bytes w args))

let vpe_wait env ~vpe_sel =
  match syscall ~idle_wait:true env Proto.Vpe_wait (fun w -> W.u64 w vpe_sel) with
  | Error e -> Error e
  | Ok r -> Ok (R.u64 r)

let vpe_suspend env ~vpe_sel =
  unit_reply (syscall env Proto.Vpe_suspend (fun w -> W.u64 w vpe_sel))

let vpe_resume env ~vpe_sel =
  unit_reply (syscall env Proto.Vpe_resume (fun w -> W.u64 w vpe_sel))

let vpe_sched_state env ~vpe_sel =
  match syscall env Proto.Vpe_sched_state (fun w -> W.u64 w vpe_sel) with
  | Error e -> Error e
  | Ok r -> Ok (R.u64 r)

let vpe_exit env ~code =
  let w = W.create () in
  W.u8 w (Proto.opcode_to_int Proto.Vpe_exit);
  W.u64 w code;
  Env.charge env Account.Os Cost_model.syscall_marshal;
  match Dtu.send env.dtu ~ep:Env.ep_syscall_send ~payload:(W.contents w) () with
  | Error e -> Error (dtu_err e)
  | Ok () -> Ok ()

let create_rgate ?sel env ~ep ~buf_addr ~slot_order ~slot_count =
  let sel = match sel with Some s -> s | None -> Env.alloc_sel env in
  match
    syscall env Proto.Create_rgate (fun w ->
        W.u64 w sel;
        W.u64 w ep;
        W.u64 w buf_addr;
        W.u64 w slot_order;
        W.u64 w slot_count)
  with
  | Error e -> Error e
  | Ok _ -> Ok sel

let create_sgate ?sel env ~rgate_sel ~label ~credits =
  let sel = match sel with Some s -> s | None -> Env.alloc_sel env in
  match
    syscall env Proto.Create_sgate (fun w ->
        W.u64 w sel;
        W.u64 w rgate_sel;
        W.i64 w label;
        W.u64 w (Proto.credits_to_int credits))
  with
  | Error e -> Error e
  | Ok _ -> Ok sel

let perm_to_int p =
  (if M3_mem.Perm.can_read p then 1 else 0)
  lor (if M3_mem.Perm.can_write p then 2 else 0)
  lor if M3_mem.Perm.can_exec p then 4 else 0

let req_mem ?sel env ~size ~perm =
  let sel = match sel with Some s -> s | None -> Env.alloc_sel env in
  match
    syscall env Proto.Req_mem (fun w ->
        W.u64 w sel;
        W.u64 w size;
        W.u64 w (perm_to_int perm))
  with
  | Error e -> Error e
  | Ok r -> Ok (sel, R.u64 r)

let derive_mem ?sel env ~src_sel ~off ~size ~perm =
  let sel = match sel with Some s -> s | None -> Env.alloc_sel env in
  match
    syscall env Proto.Derive_mem (fun w ->
        W.u64 w src_sel;
        W.u64 w sel;
        W.u64 w off;
        W.u64 w size;
        W.u64 w (perm_to_int perm))
  with
  | Error e -> Error e
  | Ok _ -> Ok sel

let activate env ~sel ~ep =
  unit_reply
    (syscall env Proto.Activate (fun w ->
         W.u64 w sel;
         W.u64 w ep))

let exchange_ env ~vpe_sel ~own_sel ~other_sel ~obtain =
  unit_reply
    (syscall env Proto.Exchange (fun w ->
         W.u64 w vpe_sel;
         W.u64 w own_sel;
         W.u64 w other_sel;
         W.u8 w (if obtain then 1 else 0)))

let delegate env ~vpe_sel ~own_sel ~other_sel =
  exchange_ env ~vpe_sel ~own_sel ~other_sel ~obtain:false

let obtain env ~vpe_sel ~own_sel ~other_sel =
  exchange_ env ~vpe_sel ~own_sel ~other_sel ~obtain:true

let obtain_published env ~vpe_sel ~own_sel ~other_sel =
  let rec go tries =
    match obtain env ~vpe_sel ~own_sel ~other_sel with
    | Ok () -> Ok ()
    | Error Errno.E_no_sel when tries > 0 ->
      M3_sim.Process.wait 500;
      go (tries - 1)
    | Error e -> Error e
  in
  go 20_000

let create_srv env ~name ~krgate_sel ~crgate_sel =
  let sel = Env.alloc_sel env in
  match
    syscall env Proto.Create_srv (fun w ->
        W.u64 w sel;
        W.str w name;
        W.u64 w krgate_sel;
        W.u64 w crgate_sel)
  with
  | Error e -> Error e
  | Ok _ -> Ok sel

let open_sess env ~srv ~arg =
  let sess_sel = Env.alloc_sel env in
  let sgate_sel = Env.alloc_sel env in
  match
    syscall env Proto.Open_sess (fun w ->
        W.u64 w sess_sel;
        W.u64 w sgate_sel;
        W.str w srv;
        W.u64 w arg)
  with
  | Error e -> Error e
  | Ok _ -> Ok (sess_sel, sgate_sel)

let exchange_sess env ~sess_sel ~args ~caps =
  let sels = List.init caps (fun _ -> Env.alloc_sel env) in
  let base = match sels with s :: _ -> s | [] -> 0 in
  match
    syscall env Proto.Exchange_sess (fun w ->
        W.u64 w sess_sel;
        W.u64 w base;
        W.u64 w caps;
        W.bytes w args)
  with
  | Error e -> Error e
  | Ok r ->
    let ncaps = R.u64 r in
    let out = R.bytes r in
    Ok (out, List.filteri (fun i _ -> i < ncaps) sels)

let delegate_sess env ~sess_sel ~own_sel =
  match
    syscall env Proto.Delegate_sess (fun w ->
        W.u64 w sess_sel;
        W.u64 w own_sel)
  with
  | Error e -> Error e
  | Ok r -> Ok (R.u64 r)

let revoke env ~sel = unit_reply (syscall env Proto.Revoke (fun w -> W.u64 w sel))

(* A main that raises exits with code 1, so its kernel object, PE and
   capabilities go the way of any other exit; only a kill (the PE
   halted under it) propagates. *)
let run_main (env : Env.t) main =
  let code =
    match main env with
    | code -> code
    | exception M3_sim.Process.Killed -> raise M3_sim.Process.Killed
    | exception e ->
      Log.warn (fun m ->
          m "vpe%d (%s): uncaught error: %s" env.vpe_id env.name
            (match e with
            | Errno.Error e -> Errno.to_string e
            | e -> Printexc.to_string e));
      1
  in
  match vpe_exit env ~code with
  | Ok () -> ()
  | Error e ->
    Log.err (fun m ->
        m "vpe%d: exit syscall failed: %s" env.vpe_id (Errno.to_string e))
