module Engine = M3_sim.Engine
module Platform = M3_hw.Platform
module Fabric = M3_noc.Fabric
module Env = M3.Env
module Errno = M3.Errno
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api

type point = { x : int; cycles : int; aux : int }

type t = {
  loc_batch : point list;
  ring_size : point list;
  hop_latency : point list;
  ep_count : point list;
  service_instances : point list;
  switching_mode : point list;
}

let ok = Errno.ok_exn
let chunk = 4096
let total = 2 * 1024 * 1024

let fragmented_seed bpe =
  [
    { M3.M3fs.sd_path = "/frag"; sd_size = total; sd_blocks_per_extent = bpe;
      sd_dir = false };
  ]

let read_loop env file buf =
  let rec drain () =
    match ok (File.read env file ~local:buf ~len:chunk) with
    | 0 -> ()
    | _ -> drain ()
  in
  drain ()

(* A1: extents of 32 blocks -> 64 location requests at batch 1. *)
let a1_loc_batch () =
  List.map
    (fun batch ->
      let requests = ref 0 in
      let m =
        Runner.run_m3 ~seeds:(fragmented_seed 32) (fun env ~measured ->
            Runner.mounted env;
            let mount = ok (Vfs.the_mount env) in
            File.set_loc_batch mount batch;
            let buf = Env.alloc_spm env ~size:chunk in
            let file = ok (Vfs.open_ env "/frag" ~flags:Fs_proto.o_read) in
            measured (fun () -> read_loop env file buf);
            requests := File.loc_requests mount)
      in
      { x = batch; cycles = m.Runner.m_cycles; aux = !requests })
    [ 1; 2; 4; 8; 16 ]

(* A2: 2 MiB through rings of 4 KiB .. 256 KiB. *)
let a2_ring_size () =
  List.map
    (fun kib ->
      let ring = kib * 1024 in
      let m =
        Runner.run_m3 ~no_fs:true (fun env ~measured ->
            let reader = ok (Pipe.create_reader env ~ring_size:ring) in
            let vpe =
              ok
                (Vpe_api.create env ~name:"w"
                   ~core:M3_hw.Core_type.General_purpose)
            in
            ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
            ok
              (Vpe_api.run env vpe (fun cenv ->
                   let w = ok (Pipe.connect_writer cenv ~ring_size:ring) in
                   let buf = Env.alloc_spm cenv ~size:chunk in
                   for _ = 1 to total / chunk do
                     ok (Pipe.write cenv w ~local:buf ~len:chunk)
                   done;
                   ok (Pipe.close_writer cenv w);
                   0));
            let buf = Env.alloc_spm env ~size:chunk in
            measured (fun () ->
                let rec drain () =
                  match ok (Pipe.read env reader ~local:buf ~len:chunk) with
                  | 0 -> ()
                  | _ -> drain ()
                in
                drain ());
            ignore (ok (Vpe_api.wait env vpe)))
      in
      { x = kib; cycles = m.Runner.m_cycles; aux = 0 })
    [ 4; 16; 64; 256 ]

(* A3, A4 and A6 boot an 8-PE platform of their own, with m3fs
   formatted with [fragmented_seed bpe], and run [app engine] as its
   one VPE. *)
let run_cell ~config ~bpe ~name app =
  let engine = Engine.create () in
  let fs ~dram =
    { (M3.M3fs.default_config ~dram) with seed = fragmented_seed bpe }
  in
  let sys =
    M3.Bootstrap.start ~platform_config:config ~fs ?obs:(Runner.bus engine)
      engine
  in
  let exit = M3.Bootstrap.launch sys ~name (app engine) in
  ignore (Engine.run engine);
  M3.Bootstrap.expect_exit sys exit

(* A3 and A6: a null syscall and a 2 MiB read over [noc]. *)
let syscall_and_bulk ~name noc =
  let config = { Platform.default_config with pe_count = 8; noc } in
  let syscall = ref 0 and bulk = ref 0 in
  run_cell ~config ~bpe:2048 ~name (fun engine env ->
      ok (M3.Syscalls.noop env);
      let t0 = Engine.now engine in
      ok (M3.Syscalls.noop env);
      syscall := Engine.now engine - t0;
      Runner.mounted env;
      let buf = Env.alloc_spm env ~size:chunk in
      let file = ok (Vfs.open_ env "/frag" ~flags:Fs_proto.o_read) in
      let t1 = Engine.now engine in
      read_loop env file buf;
      bulk := Engine.now engine - t1;
      0);
  (!syscall, !bulk)

(* A3: per-hop router latency vs syscall and bulk read. *)
let a3_hop_latency () =
  List.map
    (fun hop ->
      let syscall, bulk =
        syscall_and_bulk ~name:"a3"
          { Fabric.default_config with hop_latency = hop }
      in
      { x = hop; cycles = syscall; aux = bulk })
    [ 1; 3; 6; 12 ]

(* A4: DTU endpoint count vs multiplexing pressure. *)
let a4_ep_count () =
  List.map
    (fun eps ->
      let config = { Platform.default_config with pe_count = 8; ep_count = eps } in
      let cycles = ref 0 and acts = ref 0 in
      (* 32 extents -> 32 memory gates *)
      run_cell ~config ~bpe:64 ~name:"a4" (fun engine env ->
          Runner.mounted env;
          let buf = Env.alloc_spm env ~size:chunk in
          let file = ok (Vfs.open_ env "/frag" ~flags:Fs_proto.o_read) in
          let t0 = Engine.now engine in
          let a0 = M3.Epmux.activations env in
          (* Two passes: the second re-reads through already-held
             gates, so endpoint eviction shows. *)
          read_loop env file buf;
          ok (File.seek env file 0);
          read_loop env file buf;
          cycles := Engine.now engine - t0;
          acts := M3.Epmux.activations env - a0;
          0);
      { x = eps; cycles = !cycles; aux = !acts })
    [ 4; 8; 16; 40 ]

(* A6: the whole stack under each NoC switching mode. *)
let a6_switching_mode () =
  List.map
    (fun (tag, mode) ->
      let syscall, bulk =
        syscall_and_bulk ~name:"a6" { Fabric.default_config with mode }
      in
      { x = tag; cycles = syscall; aux = bulk })
    [ (0, `Packet); (1, `Wormhole) ]

(* A5: find clients sharded across m3fs instances; returns the average
   per-client cycles. Hand-booted: each instance is seeded with the
   trees of the clients it serves. *)
let service_instances_bench ~clients ~instances:services =
  let engine = Engine.create () in
  let pe_count = clients + 1 + services in
  let config = { Platform.default_config with pe_count } in
  let platform = Platform.create ~config engine in
  Option.iter (Fabric.set_obs (Platform.fabric platform)) (Runner.bus engine);
  let kernel = M3.Kernel.create platform ~kernel_pe:0 in
  ignore (M3.Kernel.boot kernel);
  let srv_of k = if k mod services = 0 then "m3fs" else "m3fs2" in
  let spec_of k =
    M3_trace.Workloads.prefixed
      ~prefix:(Printf.sprintf "/i%d" k)
      (M3_trace.Workloads.find ~seed:2016)
  in
  let launch name main =
    M3.Kernel.launch kernel ~name ~account:(M3_sim.Account.create ()) main
  in
  List.iteri
    (fun idx name ->
      let seeds =
        List.concat_map
          (fun k ->
            if k mod services = idx then (spec_of k).M3_trace.Workloads.sp_seeds
            else [])
          (List.init clients Fun.id)
      in
      let cfg =
        { (M3.M3fs.default_config ~dram:(Platform.dram platform)) with
          seed = seeds;
          srv_name = name;
        }
      in
      ignore (launch name (M3.M3fs.program cfg)))
    (if services = 1 then [ "m3fs" ] else [ "m3fs"; "m3fs2" ]);
  let durations = Array.make clients 0 in
  let exits =
    List.init clients (fun k ->
        launch (Printf.sprintf "client%d" k)
          {
            M3.Program.prog_image_bytes = M3.Program.default_image_bytes;
            prog_main =
              (fun env ->
                env.Env.spin_transfers <- true;
                ok (Vfs.mount env ~path:"/" ~service:(srv_of k));
                let t0 = Engine.now engine in
                let trace = (spec_of k).M3_trace.Workloads.sp_trace in
                (match M3_trace.Replay_m3.run env trace with
                | Ok () -> ()
                | Error e -> failwith (Errno.to_string e));
                durations.(k) <- Engine.now engine - t0;
                0);
          })
  in
  ignore (Engine.run engine);
  List.iter
    (fun iv ->
      match M3_sim.Process.Ivar.peek iv with
      | Some 0 -> ()
      | Some c -> failwith (Printf.sprintf "a5 client exited %d" c)
      | None -> failwith "a5 client did not finish")
    exits;
  Array.fold_left ( + ) 0 durations / clients

let a5_service_instances () =
  let clients = 8 in
  List.map
    (fun services ->
      { x = services;
        cycles = service_instances_bench ~clients ~instances:services;
        aux = clients })
    [ 1; 2 ]

let run () =
  {
    loc_batch = a1_loc_batch ();
    ring_size = a2_ring_size ();
    hop_latency = a3_hop_latency ();
    ep_count = a4_ep_count ();
    service_instances = a5_service_instances ();
    switching_mode = a6_switching_mode ();
  }

let print ppf t =
  Format.fprintf ppf "Ablations of DESIGN.md decisions@.";
  Format.fprintf ppf "  A1 extent-location batching (2 MiB read, 32-block extents)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "     batch %2d: %10s  (%d location requests)@." p.x
        (Runner.fmt_k p.cycles) p.aux)
    t.loc_batch;
  Format.fprintf ppf "  A2 pipe ring size (2 MiB transfer)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "     %3d KiB: %10s@." p.x (Runner.fmt_k p.cycles))
    t.ring_size;
  Format.fprintf ppf "  A3 NoC hop latency (null syscall vs 2 MiB read)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "     %2d cy/hop: syscall %4d, bulk read %10s@." p.x
        p.cycles (Runner.fmt_k p.aux))
    t.hop_latency;
  Format.fprintf ppf "  A4 DTU endpoint count (32 memory gates, two passes)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "     %2d EPs: %10s  (%d activates)@." p.x
        (Runner.fmt_k p.cycles) p.aux)
    t.ep_count;
  Format.fprintf ppf
    "  A5 m3fs instances (8 find clients, sharded mounts; §7 extension)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "     %d instance(s): %10s avg/client@." p.x
        (Runner.fmt_k p.cycles))
    t.service_instances;
  Format.fprintf ppf
    "  A6 NoC switching mode (substrate fidelity: packet vs wormhole)@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "     %-8s syscall %4d, 2 MiB read %10s@."
        (if p.x = 0 then "packet" else "wormhole")
        p.cycles (Runner.fmt_k p.aux))
    t.switching_mode
