module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Account = M3_sim.Account
module Platform = M3_hw.Platform

type t = {
  engine : Engine.t;
  platform : Platform.t;
  kernel : Kernel.t;
  fs_services : string list;
}

let shard_names ~base n =
  if n <= 1 then [ base ]
  else List.init n (fun i -> Printf.sprintf "%s.%d" base i)

let start ?platform_config ?fs ?(fs_instances = 1) ?(no_fs = false) ?obs
    ?faults ?sched engine =
  let platform = Platform.create ?config:platform_config engine in
  (* Install the bus before the kernel boots so bring-up traffic is
     traced too. *)
  Option.iter
    (fun o -> M3_noc.Fabric.set_obs (Platform.fabric platform) o)
    obs;
  (* Same for the fault plan: boot traffic runs under injection too. *)
  Option.iter
    (fun p -> M3_noc.Fabric.set_faults (Platform.fabric platform) p)
    faults;
  let kernel = Kernel.create ?sched platform ~kernel_pe:0 in
  ignore (Kernel.boot kernel);
  (* Devices run their hardware behavior from reset. *)
  List.iter
    (fun pe ->
      if M3_hw.Core_type.equal (M3_hw.Pe.core pe) M3_hw.Core_type.Timer_device
      then M3_hw.Timer.start pe)
    (Platform.pes platform);
  let fs_services =
    if no_fs then []
    else begin
      let dram = Platform.dram platform in
      let base =
        match fs with
        | Some f -> f ~dram
        | None -> M3fs.default_config ~dram
      in
      let names = shard_names ~base:base.M3fs.srv_name fs_instances in
      (* Shard the pre-boot seed the same way clients shard paths
         ({!Shard} on the top-level directory), so every file is found
         on exactly the instance a sharded mount will ask. *)
      let ring =
        match names with
        | [ _ ] -> None
        | _ -> Some (Shard.create ~names:(Array.of_list names) ())
      in
      List.iteri
        (fun i name ->
          let seed =
            match ring with
            | None -> base.M3fs.seed
            | Some ring ->
              List.filter
                (fun sd -> Shard.owner ring ~path:sd.M3fs.sd_path = i)
                base.M3fs.seed
          in
          let config = { base with M3fs.srv_name = name; seed } in
          let prog = M3fs.register_instance ~engine config in
          ignore (Kernel.launch kernel ~name ~account:(Account.create ()) prog))
        names;
      names
    end
  in
  { engine; platform; kernel; fs_services }

(* Process-wide: a duplicated name would overwrite another run's entry
   in the process-global program registry. *)
let counter = ref 0

let launch t ~name ?account ?args ?on_vpe main =
  incr counter;
  let prog_name = Printf.sprintf "boot.%s.%d" name !counter in
  Program.register ~name:prog_name ~image_bytes:Program.default_image_bytes main;
  let account = match account with Some a -> a | None -> Account.create () in
  Kernel.launch t.kernel ~name ~account ?args ?on_vpe prog_name

(* Supervisor policy: relaunch a workload whose VPE was aborted (PE
   crash), up to [max_restarts] times. The kernel quarantines the
   failed PE, so the retry lands on a spare one. Voluntary exits —
   success or failure — are final. *)
let supervise t ~name ?account ?args ?(max_restarts = 1) main =
  let result = Process.Ivar.create () in
  ignore
    (Process.spawn t.engine ~name:("supervise:" ^ name) (fun () ->
         let rec attempt n =
           let last = ref None in
           let iv =
             launch t ~name ?account ?args
               ~on_vpe:(fun v -> last := Some v)
               main
           in
           let code = Process.Ivar.read iv in
           if code = Kernel.abort_exit_code && n < max_restarts then begin
             (match !last with
             | Some v ->
               let obs = M3_noc.Fabric.obs (Platform.fabric t.platform) in
               if M3_obs.Obs.enabled obs then
                 M3_obs.Obs.emit obs
                   (M3_obs.Event.Vpe_restart
                      {
                        vpe = v.Kdata.v_id;
                        pe = v.Kdata.v_pe;
                        name;
                        attempt = n + 1;
                      })
             | None -> ());
             attempt (n + 1)
           end
           else Process.Ivar.fill result code
         in
         attempt 0));
  result

let run_to_completion t = Engine.run t.engine

let expect_exit _t ivar =
  match Process.Ivar.peek ivar with
  | None -> failwith "VPE did not exit (deadlock or starvation?)"
  | Some 0 -> ()
  | Some code -> failwith (Printf.sprintf "VPE exited with code %d" code)
