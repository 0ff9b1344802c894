module Account = M3_sim.Account
module Endpoint = M3_dtu.Endpoint
module Cost_model = M3_hw.Cost_model
module Obs = M3_obs.Obs
module Event = M3_obs.Event
module W = Msgbuf.W
module R = Msgbuf.R

let obs_pipe (env : Env.t) mk =
  let obs = M3_noc.Fabric.obs env.fabric in
  if Obs.enabled obs then
    Obs.emit obs (mk ~vpe:env.vpe_id ~pe:(M3_hw.Pe.id env.pe))

type 'a result_ = ('a, Errno.t) result

let handoff_sgate_sel = 1000
let handoff_ring_sel = 1001

(* Notify messages are 16 bytes + header; 8 outstanding notifications
   match the 8 ringbuffer slots and the sender credits. *)
let notify_order = 6
let notify_slots = 8
let notify_credits = Endpoint.Credits notify_slots

type reader = {
  r_rgate : Gate.recv_gate;
  mutable r_ring : Gate.mem_gate option; (* lazily bound in serve_reader mode *)
  r_ring_size : int;
  (* Partially consumed notification: slot, ring position, bytes left,
     original length (for the space-reclaim reply). *)
  mutable r_current : (int * int * int * int) option;
  mutable r_eof : bool;
}

type writer = {
  w_sgate : Gate.send_gate;
  w_reply : Gate.recv_gate;
  w_ring : Gate.mem_gate;
  w_ring_size : int;
  mutable w_pos : int;
  mutable w_free : int;
}

(* --- setup ------------------------------------------------------------ *)

let make_ring env ~ring_size =
  Gate.req_mem env ~size:ring_size ~perm:M3_mem.Perm.rw

let create_reader env ~ring_size =
  match Gate.create_recv env ~slot_order:notify_order ~slot_count:notify_slots with
  | Error e -> Error e
  | Ok rgate -> (
    match make_ring env ~ring_size with
    | Error e -> Error e
    | Ok (ring, _) ->
      Ok
        {
          r_rgate = rgate;
          r_ring = Some ring;
          r_ring_size = ring_size;
          r_current = None;
          r_eof = false;
        })

let delegate_writer_end env reader ~vpe_sel =
  match reader.r_ring with
  | None -> Error Errno.E_inv_args
  | Some ring -> (
    match
      Gate.create_send env reader.r_rgate ~label:0L ~credits:notify_credits
    with
    | Error e -> Error e
    | Ok sgate -> (
      match
        Syscalls.delegate env ~vpe_sel ~own_sel:sgate.sg_user.Env.eu_sel
          ~other_sel:handoff_sgate_sel
      with
      | Error e -> Error e
      | Ok () ->
        Syscalls.delegate env ~vpe_sel ~own_sel:ring.mg_user.Env.eu_sel
          ~other_sel:handoff_ring_sel))

let make_writer env ~sgate_sel ~ring_sel ~ring_size =
  match Gate.create_recv env ~slot_order:notify_order ~slot_count:notify_slots with
  | Error e -> Error e
  | Ok reply ->
    Ok
      {
        w_sgate = Gate.send_gate_of_sel sgate_sel;
        w_reply = reply;
        w_ring = Gate.mem_gate_of_sel ~sel:ring_sel ~size:ring_size;
        w_ring_size = ring_size;
        w_pos = 0;
        w_free = ring_size;
      }

let connect_writer env ~ring_size =
  make_writer env ~sgate_sel:handoff_sgate_sel ~ring_sel:handoff_ring_sel
    ~ring_size

let serve_reader env ~ring_size =
  match Gate.create_recv env ~slot_order:notify_order ~slot_count:notify_slots with
  | Error e -> Error e
  | Ok rgate -> (
    match
      Gate.create_send ~sel:handoff_sgate_sel env rgate ~label:0L
        ~credits:notify_credits
    with
    | Error e -> Error e
    | Ok _published ->
      Ok
        {
          r_rgate = rgate;
          r_ring = None;
          r_ring_size = ring_size;
          r_current = None;
          r_eof = false;
        })

let connect_writer_to_child env ~vpe_sel ~ring_size =
  let sgate_sel = Env.alloc_sel env in
  match
    Syscalls.obtain_published env ~vpe_sel ~own_sel:sgate_sel
      ~other_sel:handoff_sgate_sel
  with
  | Error e -> Error e
  | Ok () -> (
    match make_ring env ~ring_size with
    | Error e -> Error e
    | Ok (ring, _) -> (
      match
        Syscalls.delegate env ~vpe_sel ~own_sel:ring.mg_user.Env.eu_sel
          ~other_sel:handoff_ring_sel
      with
      | Error e -> Error e
      | Ok () -> (
        match Gate.create_recv env ~slot_order:notify_order ~slot_count:notify_slots with
        | Error e -> Error e
        | Ok reply ->
          Ok
            {
              w_sgate = Gate.send_gate_of_sel sgate_sel;
              w_reply = reply;
              w_ring = ring;
              w_ring_size = ring_size;
              w_pos = 0;
              w_free = ring_size;
            })))

(* --- peer-death detection --------------------------------------------- *)

(* A dead peer surfaces here in one of three shapes: the kernel
   poisons our receive gate while we are parked on it ([Invalid_ep]
   raised out of the park), we park after the poisoning or the peer
   simply never answers again (timeout, armed only under a fault
   plan), or our capabilities derived from the peer's were revoked
   with it (send/transfer errors). All collapse into [E_pipe_broken];
   the clean [Ok 0] EOF stays reserved for an explicit close. *)

let pipe_recv (env : Env.t) g =
  match Gate.recv ?deadline:(Env.watchdog env.fabric) env g with
  | msg -> Ok msg
  | exception (M3_dtu.Dtu_error.Error _ | Errno.Error Errno.E_timeout) ->
    Error Errno.E_pipe_broken

(* Data-plane errors that mean "the other end took the capability with
   it into the grave": the selector is gone or the activated endpoint
   was invalidated under us. *)
let broken = function
  | Errno.E_dtu _ | Errno.E_no_sel | Errno.E_not_found -> Errno.E_pipe_broken
  | e -> e

(* --- writer data plane -------------------------------------------------- *)

let apply_ack w payload =
  let r = R.of_bytes payload in
  let len = R.u64 r in
  w.w_free <- min w.w_ring_size (w.w_free + len)

let drain_acks env w =
  let rec go () =
    match Gate.fetch env w.w_reply with
    | Some msg ->
      apply_ack w msg.payload;
      Gate.ack env w.w_reply ~slot:msg.slot;
      go ()
    | None -> ()
  in
  go ()

let wait_ack env w =
  match pipe_recv env w.w_reply with
  | Error e -> Error e
  | Ok msg ->
    apply_ack w msg.payload;
    Gate.ack env w.w_reply ~slot:msg.slot;
    Ok ()

let notify env w ~pos ~len =
  let payload =
    let m = W.create () in
    W.u64 m pos;
    W.u64 m len;
    W.contents m
  in
  let rec try_send () =
    match Gate.send env w.w_sgate payload ~reply:(w.w_reply, 0L) () with
    | Ok () -> Ok ()
    | Error Errno.E_no_credits -> (
      (* All notifications in flight: reclaim space first. *)
      match wait_ack env w with
      | Error e -> Error e
      | Ok () -> try_send ())
    | Error e -> Error (broken e)
  in
  try_send ()

let write env w ~local ~len =
  if len < 0 then Error Errno.E_inv_args
  else begin
    let rec put done_ remaining =
      if remaining = 0 then Ok ()
      else begin
        drain_acks env w;
        if w.w_free = 0 then begin
          match wait_ack env w with
          | Error e -> Error e
          | Ok () -> put done_ remaining
        end
        else begin
          let n = min remaining (min w.w_free (w.w_ring_size - w.w_pos)) in
          match Gate.write env w.w_ring ~off:w.w_pos ~local:(local + done_) ~len:n with
          | Error e -> Error (broken e)
          | Ok () -> (
            Env.charge env Account.Os Cost_model.pipe_meta;
            match notify env w ~pos:w.w_pos ~len:n with
            | Error e -> Error e
            | Ok () ->
              obs_pipe env (fun ~vpe ~pe ->
                  Event.Pipe_push { vpe; pe; bytes = n });
              w.w_pos <- (w.w_pos + n) mod w.w_ring_size;
              w.w_free <- w.w_free - n;
              put (done_ + n) (remaining - n))
        end
      end
    in
    put 0 len
  end

let close_writer env w =
  Env.charge env Account.Os Cost_model.pipe_meta;
  notify env w ~pos:0 ~len:0

(* --- reader data plane ---------------------------------------------------- *)

let ring_gate env r =
  match r.r_ring with
  | Some g -> g
  | None ->
    (* serve_reader mode: the parent delegated the ring capability at
       the handoff selector before sending the first notification. *)
    let g = Gate.mem_gate_of_sel ~sel:handoff_ring_sel ~size:r.r_ring_size in
    ignore env;
    r.r_ring <- Some g;
    g

let reclaim env r ~slot ~total =
  let m = W.create () in
  W.u64 m total;
  Gate.reply env r.r_rgate ~slot (W.contents m)

let rec read env r ~local ~len =
  if len < 0 then Error Errno.E_inv_args
  else if r.r_eof then Ok 0
  else
    match r.r_current with
    | Some (slot, pos, remaining, total) -> (
      let n = min len remaining in
      match Gate.read env (ring_gate env r) ~off:pos ~local ~len:n with
      | Error e -> Error (broken e)
      | Ok () ->
        Env.charge env Account.Os Cost_model.pipe_meta;
        obs_pipe env (fun ~vpe ~pe -> Event.Pipe_pop { vpe; pe; bytes = n });
        if n = remaining then begin
          r.r_current <- None;
          match reclaim env r ~slot ~total with
          | Error e -> Error e
          | Ok () -> Ok n
        end
        else begin
          r.r_current <- Some (slot, pos + n, remaining - n, total);
          Ok n
        end)
    | None -> (
      match pipe_recv env r.r_rgate with
      | Error e -> Error e
      | Ok msg ->
      let mr = R.of_bytes msg.payload in
      let pos = R.u64 mr in
      let n = R.u64 mr in
      if n = 0 then begin
        r.r_eof <- true;
        match reclaim env r ~slot:msg.slot ~total:0 with
        | Error e -> Error e
        | Ok () -> Ok 0
      end
      else begin
        r.r_current <- Some (msg.slot, pos, n, n);
        read env r ~local ~len
      end)
