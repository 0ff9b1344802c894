module Account = M3_sim.Account
module Cost_model = M3_hw.Cost_model

type 'a result_ = ('a, Errno.t) result

type t = {
  vpe_sel : int;
  mem_sel : int;
  vpe_id : int;
  pe_id : int;
}

let create env ~name ~core =
  match Syscalls.create_vpe env ~name ~core with
  | Error e -> Error e
  | Ok (vpe_sel, mem_sel, vpe_id, pe_id) -> Ok { vpe_sel; mem_sel; vpe_id; pe_id }

(* Copies [image_bytes] of code/data plus the used data area into the
   child's SPM through the delegated memory gate — real bytes move over
   the NoC at 8 B/cycle, which is the dominant cost of [run]. *)
let load_image (env : Env.t) t ~image_bytes =
  let spm_size = M3_mem.Store.size (M3_hw.Pe.spm env.pe) in
  let gate = Gate.mem_gate_of_sel ~sel:t.mem_sel ~size:spm_size in
  let data_bytes = env.spm_top - Env.data_start in
  (* Code and static data land above the data area; model the copy as
     one transfer of the combined size from our SPM base. *)
  let total = min spm_size (image_bytes + data_bytes) in
  Gate.write env gate ~off:0 ~local:0 ~len:total

let start_program env t ?(args = Bytes.empty) ~image_bytes prog =
  match load_image env t ~image_bytes with
  | Error e -> Error e
  | Ok () -> Syscalls.vpe_start env ~vpe_sel:t.vpe_sel ~prog ~args

let run (env : Env.t) t ?(args = Bytes.empty) main =
  Env.charge env Account.Os Cost_model.vpe_clone_setup;
  let prog =
    Program.register_lambda env.engine ~image_bytes:env.image_bytes main
  in
  start_program env t ~args ~image_bytes:env.image_bytes prog

let exec env t ?(args = Bytes.empty) path =
  Env.charge env Account.Os Cost_model.vpe_exec_setup;
  match Vfs.open_ env path ~flags:Fs_proto.o_read with
  | Error e -> Error e
  | Ok file -> (
    let header = File.read_all env file ~max:64 in
    let closed = File.close env file in
    match (header, closed) with
    | Error e, _ | _, Error e -> Error e
    | Ok contents, Ok () -> (
      match Program.parse_shebang contents with
      | None -> Error Errno.E_inv_args
      | Some name -> (
        match Program.find env.engine name with
        | None -> Error Errno.E_not_found
        | Some prog ->
          start_program env t ~args ~image_bytes:prog.prog_image_bytes name)))

let wait env t = Syscalls.vpe_wait env ~vpe_sel:t.vpe_sel
let suspend env t = Syscalls.vpe_suspend env ~vpe_sel:t.vpe_sel
let resume env t = Syscalls.vpe_resume env ~vpe_sel:t.vpe_sel

type sched_state = Placed | Suspending | Parked | Queued

let sched_state env t =
  match Syscalls.vpe_sched_state env ~vpe_sel:t.vpe_sel with
  | Error e -> Error e
  | Ok 0 -> Ok Placed
  | Ok 1 -> Ok Suspending
  | Ok 2 -> Ok Parked
  | Ok _ -> Ok Queued

let rec await_parked env t =
  match sched_state env t with
  | Error e -> Error e
  | Ok Parked -> Ok ()
  | Ok _ ->
    M3_sim.Process.wait 500;
    await_parked env t

(* Supervised child: create + run + wait, and when the wait reports
   [E_vpe_dead] (the child's PE crashed and the kernel aborted it),
   drop the dead child's capabilities and retry once on a fresh PE —
   the kernel quarantined the crashed one, so [create] cannot pick it
   again. *)
let max_restarts = 1

let run_supervised (env : Env.t) ~name ~core ?args main =
  let rec attempt n =
    match create env ~name ~core with
    | Error e -> Error e
    | Ok t -> (
      match run env t ?args main with
      | Error e -> Error e
      | Ok () -> (
        match wait env t with
        | Error Errno.E_vpe_dead when n < max_restarts ->
          ignore (Syscalls.revoke env ~sel:t.vpe_sel);
          ignore (Syscalls.revoke env ~sel:t.mem_sel);
          (let obs = M3_noc.Fabric.obs env.fabric in
           if M3_obs.Obs.enabled obs then
             M3_obs.Obs.emit obs
               (M3_obs.Event.Vpe_restart
                  { vpe = t.vpe_id; pe = t.pe_id; name; attempt = n + 1 }));
          attempt (n + 1)
        | r -> r))
  in
  attempt 0

let delegate env t ~own_sel ~other_sel =
  Syscalls.delegate env ~vpe_sel:t.vpe_sel ~own_sel ~other_sel

let obtain env t ~own_sel ~other_sel =
  Syscalls.obtain env ~vpe_sel:t.vpe_sel ~own_sel ~other_sel

let revoke env t = Syscalls.revoke env ~sel:t.vpe_sel
