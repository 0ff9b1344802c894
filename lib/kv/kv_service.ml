module Engine = M3_sim.Engine
module Endpoint = M3_dtu.Endpoint
module Core_type = M3_hw.Core_type
module Env = M3.Env
module Errno = M3.Errno
module Gate = M3.Gate
module Vfs = M3.Vfs
module Syscalls = M3.Syscalls
module Vpe_api = M3.Vpe_api

let ok = Errno.ok_exn

(* Requests and responses carry real keys and payloads (up to
   [value_max] bytes), so the service speaks through 2 KiB slots
   rather than the pool's order-8 batch slots. *)
let handoff_sel = 2100
let slot_order = 11
let slot_count = 4
let credits = Endpoint.Credits 2

(* --- the service VPE ---------------------------------------------------- *)

let service_body store ~fs_services (cenv : Env.t) =
  if fs_services <> [] then
    ok (Vfs.mount_sharded cenv ~path:"/" ~services:fs_services);
  let rgate = ok (Gate.create_recv cenv ~slot_order ~slot_count) in
  let _published =
    ok (Gate.create_send ~sel:handoff_sel cenv rgate ~label:0L ~credits)
  in
  (* The service assigns its own put tokens: requests already carrying
     one (a client-side retry) keep it, fresh puts get the next in
     line. Monotonic from 1 so the preload's -1 never wins. *)
  let next_seq = ref 1 in
  let rec loop () =
    let msg = Gate.recv cenv rgate in
    let req =
      match Kv_wire.decode_req msg.Endpoint.payload with
      | req -> Some req
      | exception Invalid_argument _ -> None
    in
    match req with
    | None ->
      ok (Gate.reply cenv rgate ~slot:msg.Endpoint.slot
            (Kv_wire.encode_resp (Kv_wire.P_err Errno.E_inv_args)));
      loop ()
    | Some Kv_wire.R_stop ->
      ok (Gate.reply cenv rgate ~slot:msg.Endpoint.slot
            (Kv_wire.encode_resp Kv_wire.P_done));
      0
    | Some req ->
      let seq =
        match req with
        | Kv_wire.R_put { seq; _ } when seq <> 0 -> seq
        | Kv_wire.R_put _ ->
          let s = !next_seq in
          incr next_seq;
          s
        | _ -> 0
      in
      let resp = Kv_store.exec cenv store ~seq req in
      ok (Gate.reply cenv rgate ~slot:msg.Endpoint.slot
            (Kv_wire.encode_resp resp));
      loop ()
  in
  loop ()

(* --- client handle ------------------------------------------------------- *)

type t = {
  vpe : Vpe_api.t;
  sgate : Gate.send_gate;
  reply : Gate.recv_gate;
}

let start env store ~fs_services =
  match Vpe_api.create env ~name:"kv" ~core:Core_type.General_purpose with
  | Error e -> Error e
  | Ok vpe -> (
    match Vpe_api.run env vpe (service_body store ~fs_services) with
    | Error e -> Error e
    | Ok () -> (
      let sel = Env.alloc_sel env in
      match
        Syscalls.obtain_published env ~vpe_sel:vpe.Vpe_api.vpe_sel ~own_sel:sel
          ~other_sel:handoff_sel
      with
      | Error e -> Error e
      | Ok () -> (
        match Gate.create_recv env ~slot_order ~slot_count:2 with
        | Error e -> Error e
        | Ok reply ->
          Ok { vpe; sgate = Gate.send_gate_of_sel sel; reply })))

let call env t req =
  match Gate.call env t.sgate ~reply_gate:t.reply (Kv_wire.encode_req req) with
  | Error e -> Error e
  | Ok payload -> (
    match Kv_wire.decode_resp payload with
    | resp -> Ok resp
    | exception Invalid_argument _ -> Error Errno.E_inv_args)

let get env t ~key = call env t (Kv_wire.R_get { key })
let put env t ~key ~value = call env t (Kv_wire.R_put { key; seq = 0; value })
let delete env t ~key = call env t (Kv_wire.R_delete { key })

let scan env t ~bucket ~cursor ~limit =
  call env t (Kv_wire.R_scan { bucket; cursor; limit })

let stop env t =
  match call env t Kv_wire.R_stop with
  | Error e -> Error e
  | Ok _ -> Vpe_api.wait env t.vpe
