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
        | _ -> Some (Shard.create ~names:(Array.of_list names))
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
          ignore
            (Kernel.launch kernel ~name ~account:(Account.create ())
               (M3fs.program config)))
        names;
      names
    end
  in
  { engine; platform; kernel; fs_services }

let launch t ~name ?account ?args main =
  let account = match account with Some a -> a | None -> Account.create () in
  Kernel.launch t.kernel ~name ~account ?args
    { Program.prog_main = main; prog_image_bytes = Program.default_image_bytes }

let expect_exit _t ivar =
  match Process.Ivar.peek ivar with
  | None -> failwith "VPE did not exit (deadlock or starvation?)"
  | Some 0 -> ()
  | Some code -> failwith (Printf.sprintf "VPE exited with code %d" code)
