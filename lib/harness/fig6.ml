module Engine = M3_sim.Engine
module Account = M3_sim.Account
module Process = M3_sim.Process
module Platform = M3_hw.Platform
module Env = M3.Env
module Errno = M3.Errno
module Workloads = M3_trace.Workloads

type point = {
  instances : int;
  normalized : float;
}

type curve = {
  bench : string;
  points : point list;
}

let counts = [ 1; 2; 4; 8; 16 ]

type body = instance:int -> M3.Env.t -> measured:((unit -> unit) -> unit) -> unit
type bench = int * (int -> M3.M3fs.seed list) * body

let ok = Errno.ok_exn
let workload_seed = 2016

(* Runs [instances] copies of a benchmark in parallel on a system with
   one kernel and [shards] m3fs instances (default one); returns the
   average per-instance time of the measured section. [seeds_of] and
   [body] are per-instance; [body] runs inside the instance's VPE with
   the fs mounted (sharded when [shards > 1]) and spin-transfers
   enabled, and must bracket its measured part with the given
   function. With [shards = 1] the system and all formulas are exactly
   the classic Fig. 6 setup. *)
let run_multi ?(shards = 1) ?observe ?(emit_queue = false) ~instances
    ~pes_per_instance ~seeds_of ~body () =
  let engine = Engine.create () in
  let pe_count = (instances * pes_per_instance) + 1 + shards in
  (* Per-shard image size: with one shard every instance's inputs and
     outputs land on it; with several, the seed is partitioned by
     top-level directory, so each shard only needs room for its share
     (×2 slack — consistent hashing is not perfectly even). *)
  let per_shard = (instances + shards - 1) / shards in
  let fs_size_mib =
    if shards = 1 then 16 + (6 * instances) else 16 + (12 * per_shard)
  in
  let dram_mib =
    if shards = 1 then 64 + (8 * instances)
    else 48 + (8 * instances) + (shards * fs_size_mib)
  in
  let config =
    { Platform.default_config with
      pe_count;
      dram_size = dram_mib * 1024 * 1024;
    }
  in
  let seeds = List.concat_map seeds_of (List.init instances Fun.id) in
  let fs ~dram =
    { (M3.M3fs.default_config ~dram) with
      seed = seeds;
      fs_size = fs_size_mib * 1024 * 1024;
      (* derived from the sweep's width: 1024 inodes starve a
         16-instance run whose workloads create files at runtime *)
      inode_count = max 1024 (128 * instances);
      emit_queue;
    }
  in
  let sys =
    M3.Bootstrap.start ~platform_config:config ~fs ~fs_instances:shards
      ?obs:(Runner.bus ?observe engine) engine
  in
  let durations = Array.make instances 0 in
  let exits =
    List.init instances (fun k ->
        M3.Bootstrap.launch sys
          ~name:(Printf.sprintf "inst%d" k)
          ~account:(Account.create ())
          (fun env ->
            env.Env.spin_transfers <- true;
            if shards = 1 then Runner.mounted env
            else
              ok
                (M3.Vfs.mount_sharded env ~path:"/"
                   ~services:sys.M3.Bootstrap.fs_services);
            let measured f =
              let t0 = Engine.now engine in
              f ();
              durations.(k) <- Engine.now engine - t0
            in
            body ~instance:k env ~measured;
            0))
  in
  ignore (Engine.run engine);
  List.iter (fun iv -> M3.Bootstrap.expect_exit sys iv) exits;
  Array.fold_left ( + ) 0 durations / instances

let trace_bench spec_of =
  let seeds_of k =
    (Workloads.prefixed ~prefix:(Printf.sprintf "/i%d" k) (spec_of ())).Workloads.sp_seeds
  in
  let body ~instance env ~measured =
    let spec =
      Workloads.prefixed ~prefix:(Printf.sprintf "/i%d" instance) (spec_of ())
    in
    measured (fun () ->
        match M3_trace.Replay_m3.run env spec.Workloads.sp_trace with
        | Ok () -> ()
        | Error e -> failwith (Errno.to_string e))
  in
  (1, seeds_of, body)

(* cat+tr needs a second PE per instance for the child VPE. *)
let cat_tr_bench () =
  let seeds_of k =
    [
      { M3.M3fs.sd_path = Printf.sprintf "/cat-in%d" k;
        sd_size = Fig5.cat_in_bytes; sd_blocks_per_extent = 256; sd_dir = false };
    ]
  in
  let body ~instance env ~measured =
    let module Pipe = M3.Pipe in
    let module Vpe_api = M3.Vpe_api in
    let module File = M3.File in
    let module Vfs = M3.Vfs in
    let module Store = M3_mem.Store in
    let chunk = 4096 in
    let in_path = Printf.sprintf "/cat-in%d" instance in
    let out_path = Printf.sprintf "/cat-out%d" instance in
    measured (fun () ->
        let reader = ok (Pipe.create_reader env ~ring_size:(64 * 1024)) in
        let vpe =
          ok
            (Vpe_api.create env ~name:"cat"
               ~core:M3_hw.Core_type.General_purpose)
        in
        ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
        ok
          (Vpe_api.run env vpe (fun cenv ->
               cenv.Env.spin_transfers <- true;
               Runner.mounted cenv;
               let w = ok (Pipe.connect_writer cenv ~ring_size:(64 * 1024)) in
               let buf = Env.alloc_spm cenv ~size:chunk in
               let file = ok (Vfs.open_ cenv in_path ~flags:M3.Fs_proto.o_read) in
               let rec pump () =
                 match ok (File.read cenv file ~local:buf ~len:chunk) with
                 | 0 -> ()
                 | n ->
                   ok (Pipe.write cenv w ~local:buf ~len:n);
                   pump ()
               in
               pump ();
               ok (File.close cenv file);
               ok (Pipe.close_writer cenv w);
               0));
        let buf = Env.alloc_spm env ~size:chunk in
        let out =
          ok
            (Vfs.open_ env out_path
               ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
        in
        let rec pump () =
          match ok (Pipe.read env reader ~local:buf ~len:chunk) with
          | 0 -> ()
          | n ->
            Env.charge env Account.App (M3_hw.Cost_model.compute_per_byte * n);
            ok (File.write env out ~local:buf ~len:n);
            pump ()
        in
        pump ();
        ok (File.close env out);
        match ok (Vpe_api.wait env vpe) with
        | 0 -> ()
        | c -> failwith (Printf.sprintf "cat child exited %d" c))
  in
  (2, seeds_of, body)

let benches () =
  [
    ("cat+tr", cat_tr_bench ());
    ("tar", trace_bench (fun () -> Workloads.tar ~seed:workload_seed));
    ("untar", trace_bench (fun () -> Workloads.untar ~seed:workload_seed));
    ("find", trace_bench (fun () -> Workloads.find ~seed:workload_seed));
    ("sqlite", trace_bench (fun () -> Workloads.sqlite ~seed:workload_seed));
  ]

let run () =
  List.map
    (fun (name, (pes_per_instance, seeds_of, body)) ->
      (* cat+tr needs two PEs per instance; with 1 instance there is no
         second communication partner to contend with, matching
         footnote 7 of the paper (no 1-PE result): we still use 1
         instance as the normalization base. *)
      let base = ref 0 in
      let points =
        List.map
          (fun n ->
            let avg =
              run_multi ~instances:n ~pes_per_instance ~seeds_of ~body ()
            in
            if n = 1 then base := avg;
            { instances = n;
              normalized = float_of_int avg /. float_of_int (max 1 !base) })
          counts
      in
      { bench = name; points })
    (benches ())

let print ppf curves =
  Format.fprintf ppf
    "Figure 6: scalability with one kernel + one m3fs (normalized avg \
     time per instance; flatter is better)@.";
  Format.fprintf ppf "  %-8s" "bench";
  List.iter (fun n -> Format.fprintf ppf "%8d" n) counts;
  Format.fprintf ppf "@.";
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-8s" c.bench;
      List.iter (fun p -> Format.fprintf ppf "%8.2f" p.normalized) c.points;
      Format.fprintf ppf "@.")
    curves;
  Format.fprintf ppf
    "  paper: flat to 4 instances, mild at 8; find/untar degrade at 16, \
     cat+tr stays flat@."
