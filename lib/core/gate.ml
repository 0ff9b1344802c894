module Account = M3_sim.Account
module Engine = M3_sim.Engine
module Dtu = M3_dtu.Dtu
module Endpoint = M3_dtu.Endpoint
module Cost_model = M3_hw.Cost_model

type 'a result_ = ('a, Errno.t) result

type recv_gate = {
  rg_sel : int;
  rg_ep : int;
  rg_buf_addr : int;
  rg_slot_order : int;
  rg_slot_count : int;
}

type send_gate = { sg_user : Env.ep_user }
type mem_gate = { mg_user : Env.ep_user; mg_size : int }

let dtu_err = function
  | M3_dtu.Dtu_error.No_credits -> Errno.E_no_credits
  | e -> Errno.E_dtu (M3_dtu.Dtu_error.to_string e)

let create_recv ?sel (env : Env.t) ~slot_order ~slot_count =
  let buf_addr = Env.alloc_spm env ~size:(slot_count * (1 lsl slot_order)) in
  let ep = Epmux.reserve env in
  match Syscalls.create_rgate ?sel env ~ep ~buf_addr ~slot_order ~slot_count with
  | Error e -> Error e
  | Ok sel ->
    Ok { rg_sel = sel; rg_ep = ep; rg_buf_addr = buf_addr; rg_slot_order = slot_order;
         rg_slot_count = slot_count }

let create_send ?sel env rgate ~label ~credits =
  match Syscalls.create_sgate ?sel env ~rgate_sel:rgate.rg_sel ~label ~credits with
  | Error e -> Error e
  | Ok sel -> Ok { sg_user = { Env.eu_sel = sel; eu_ep = None } }

let send_gate_of_sel sel = { sg_user = { Env.eu_sel = sel; eu_ep = None } }

let mem_gate_of_sel ~sel ~size =
  { mg_user = { Env.eu_sel = sel; eu_ep = None }; mg_size = size }

let req_mem ?sel env ~size ~perm =
  match Syscalls.req_mem ?sel env ~size ~perm with
  | Error e -> Error e
  | Ok (sel, addr) -> Ok (mem_gate_of_sel ~sel ~size, addr)

let send ?(block = true) (env : Env.t) g payload ?reply () =
  match Epmux.acquire env g.sg_user with
  | Error e -> Error e
  | Ok ep -> (
    Env.charge_marshal env (Bytes.length payload);
    Env.charge env Account.Os Cost_model.syscall_program_dtu;
    let reply = Option.map (fun (rg, label) -> (rg.rg_ep, label)) reply in
    match Dtu.send ~block env.dtu ~ep ~payload ?reply () with
    | Error e -> Error (dtu_err e)
    | Ok () -> Ok ())

let recv ?deadline (env : Env.t) g =
  match Dtu.wait ?deadline env.dtu ~eps:[ g.rg_ep ] with
  | None -> raise (Errno.Error Errno.E_timeout)
  | Some msg ->
    Env.charge env Account.Os Cost_model.wakeup;
    Env.charge_marshal env (Bytes.length msg.payload);
    msg

let recv_any (env : Env.t) gates =
  let eps = List.map (fun g -> g.rg_ep) gates in
  let msg = Dtu.wait_any env.dtu ~eps in
  Env.charge env Account.Os Cost_model.wakeup;
  Env.charge_marshal env (Bytes.length msg.payload);
  let rec index i = function
    | [] -> assert false
    | g :: rest -> if g.rg_ep = msg.ep then i else index (i + 1) rest
  in
  (index 0 gates, msg)

let fetch (env : Env.t) g = Dtu.fetch env.dtu ~ep:g.rg_ep
let backlog (env : Env.t) g = Dtu.buffered env.dtu ~ep:g.rg_ep

let reply (env : Env.t) g ~slot payload =
  Env.charge_marshal env (Bytes.length payload);
  Env.charge env Account.Os Cost_model.syscall_program_dtu;
  match Dtu.reply env.dtu ~ep:g.rg_ep ~slot ~payload with
  | Error e -> Error (dtu_err e)
  | Ok () -> Ok ()

let ack (env : Env.t) g ~slot = Dtu.ack env.dtu ~ep:g.rg_ep ~slot

(* Request/response to a service: like a syscall, the blocked time is
   split into the two NoC crossings (Xfer) and the server's share (Os). *)
let call (env : Env.t) g ~reply_gate payload =
  let t0 = Engine.now env.engine in
  match send env g payload ~reply:(reply_gate, 0L) () with
  | Error e -> Error e
  | Ok () -> (
    match
      Syscalls.await_reply env ~ep:reply_gate.rg_ep ~t0
        ~sent:(Bytes.length payload)
    with
    | None -> Error Errno.E_timeout
    | Some msg ->
      Env.charge env Account.Os Cost_model.wakeup;
      Env.charge_marshal env (Bytes.length msg.payload);
      Ok msg.payload)

let mem_op env (g : mem_gate) ~off ~len ~f =
  if env.Env.spin_transfers then begin
    (* Fig. 6 methodology: burn the time a DRAM transfer would take
       without touching the NoC or DRAM, so only the software
       (kernel/m3fs) contention remains visible. *)
    let spin =
      Env.msg_send_latency env ~dst:env.Env.kernel_pe ~bytes:len
    in
    Env.charge env Account.Xfer spin;
    Ok ()
  end
  else
    match Epmux.acquire env g.mg_user with
    | Error e -> Error e
    | Ok ep ->
      if off < 0 || len < 0 || off + len > g.mg_size then Error Errno.E_inv_args
      else
        Env.timed env Account.Xfer (fun () ->
            match f ep with Error e -> Error (dtu_err e) | Ok () -> Ok ())

let read (env : Env.t) g ~off ~local ~len =
  mem_op env g ~off ~len ~f:(fun ep ->
      Dtu.read_mem env.dtu ~ep ~off ~local ~len)

let write (env : Env.t) g ~off ~local ~len =
  mem_op env g ~off ~len ~f:(fun ep ->
      Dtu.write_mem env.dtu ~ep ~off ~local ~len)
