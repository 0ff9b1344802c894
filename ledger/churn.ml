(* boot-churn: many short-lived systems on the paper's default platform
   (16 PEs, 64 MiB DRAM, one m3fs), each running one §5
   microbenchmark as a closed loop of one client. Host time here is
   almost all set-up, so it is the workload where boot, memory and
   retention changes show. *)

module Engine = M3_sim.Engine
module Rng = M3_sim.Rng
module Store = M3_mem.Store
module Env = M3.Env
module Errno = M3.Errno
module File = M3.File
module Vfs = M3.Vfs
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api
module Fs_proto = M3.Fs_proto
module Workloads = M3_trace.Workloads

let chunk = 4096
let file_bytes = 2 * 1024 * 1024
let pipe_bytes = 512 * 1024
let pipe_ring = 64 * 1024
let ok = Errno.ok_exn

(* The bytes of chunk [c]: the system's random block with the chunk
   index stamped over its head, so every chunk differs. *)
let chunk_bytes block c =
  let b = Bytes.copy block in
  Bytes.set_int64_le b 0 (Int64.of_int c);
  b

let spm (env : Env.t) = M3_hw.Pe.spm env.Env.pe

(* A digest of everything read back, folded into the unit digest: the
   data is a simulated output too. *)
let note_data ctx label buf = Ctx.note ctx label (Digest.to_hex (Digest.string buf))

let null_syscalls ctx ~count env =
  for _ = 1 to count do
    ok (Ctx.op ctx env "syscall.noop" (fun () -> M3.Syscalls.noop env))
  done

(* Write [bytes] in 4 KiB chunks, read the file back and compare every
   chunk. *)
let file_roundtrip ctx ~label ~bytes ~block env =
  ok (Ctx.op ctx env "vfs.mount" (fun () -> Vfs.mount_root env));
  let buf = Env.alloc_spm env ~size:chunk in
  let chunks = bytes / chunk in
  let f =
    ok
      (Ctx.op ctx env "vfs.open" (fun () ->
           Vfs.open_ env "/churn.dat"
             ~flags:Fs_proto.(o_write lor o_create lor o_trunc)))
  in
  for c = 0 to chunks - 1 do
    Store.write_bytes (spm env) ~addr:buf (chunk_bytes block c) ~pos:0
      ~len:chunk;
    ok (Ctx.op ctx env "file.write" (fun () -> File.write env f ~local:buf ~len:chunk))
  done;
  ok (Ctx.op ctx env "file.close" (fun () -> File.close env f));
  let f =
    ok
      (Ctx.op ctx env "vfs.open" (fun () ->
           Vfs.open_ env "/churn.dat" ~flags:Fs_proto.o_read))
  in
  let data = Buffer.create bytes in
  let rec drain () =
    match
      ok (Ctx.op ctx env "file.read" (fun () -> File.read env f ~local:buf ~len:chunk))
    with
    | 0 -> ()
    | n ->
      Buffer.add_bytes data (Store.read_bytes (spm env) ~addr:buf ~len:n);
      drain ()
  in
  drain ();
  ok (Ctx.op ctx env "file.close" (fun () -> File.close env f));
  let expect = Buffer.create bytes in
  for c = 0 to chunks - 1 do
    Buffer.add_bytes expect (chunk_bytes block c)
  done;
  Ctx.check ctx
    (Buffer.length data = bytes && Buffer.contents data = Buffer.contents expect)
    (Printf.sprintf "%s: read-back of %d bytes does not match what was written"
       label (Buffer.length data));
  note_data ctx label (Buffer.contents data)

(* A producer VPE pushes [bytes] through a pipe; the client drains it
   and compares. *)
let pipe_transfer ctx ~label ~bytes ~block env =
  let reader = ok (Pipe.create_reader env ~ring_size:pipe_ring) in
  let vpe =
    ok
      (Vpe_api.create env ~name:"producer"
         ~core:M3_hw.Core_type.General_purpose)
  in
  ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
  let chunks = bytes / chunk in
  ok
    (Vpe_api.run env vpe (fun cenv ->
         let w = ok (Pipe.connect_writer cenv ~ring_size:pipe_ring) in
         let buf = Env.alloc_spm cenv ~size:chunk in
         for c = 0 to chunks - 1 do
           Store.write_bytes (spm cenv) ~addr:buf (chunk_bytes block c) ~pos:0
             ~len:chunk;
           ok
             (Ctx.op ctx cenv "pipe.write" (fun () ->
                  Pipe.write cenv w ~local:buf ~len:chunk))
         done;
         ok (Pipe.close_writer cenv w);
         0));
  let buf = Env.alloc_spm env ~size:chunk in
  let data = Buffer.create bytes in
  let rec drain () =
    match
      ok (Ctx.op ctx env "pipe.read" (fun () -> Pipe.read env reader ~local:buf ~len:chunk))
    with
    | 0 -> ()
    | n ->
      Buffer.add_bytes data (Store.read_bytes (spm env) ~addr:buf ~len:n);
      drain ()
  in
  drain ();
  let code = ok (Vpe_api.wait env vpe) in
  Ctx.check ctx (code = 0) (Printf.sprintf "%s: producer exited %d" label code);
  let expect = Buffer.create bytes in
  for c = 0 to chunks - 1 do
    Buffer.add_bytes expect (chunk_bytes block c)
  done;
  Ctx.check ctx
    (Buffer.contents data = Buffer.contents expect)
    (Printf.sprintf "%s: %d bytes out of the pipe for %d in" label
       (Buffer.length data) bytes);
  note_data ctx label (Buffer.contents data)

let replay ctx ~label (spec : Workloads.spec) env =
  ok (Ctx.op ctx env "vfs.mount" (fun () -> Vfs.mount_root env));
  match
    Ctx.op ctx env ("replay." ^ spec.Workloads.sp_name) (fun () ->
        M3_trace.Replay_m3.run env spec.Workloads.sp_trace)
  with
  | Ok () -> ()
  | Error e ->
    failwith (Printf.sprintf "%s: replay failed: %s" label (Errno.to_string e))

type kind =
  | Syscalls
  | File_rw of Bytes.t
  | Pipe_xfer of Bytes.t
  | Replay of Workloads.spec

(* System [i] runs kind [i mod 4]; replays alternate find and tar. The
   seed draws the data written and the replayed workloads; the
   microbenchmarks' sizes are the paper's. *)
let kinds ~seed ~systems =
  Array.init systems (fun i ->
      let block () =
        let b = Bytes.create chunk in
        Rng.fill_bytes (Rng.create ~seed:((seed * 7919) + i)) b ~pos:0 ~len:chunk;
        b
      in
      match i mod 4 with
      | 0 -> Syscalls
      | 1 -> File_rw (block ())
      | 2 -> Pipe_xfer (block ())
      | _ ->
        let wseed = (seed * 100) + i in
        Replay
          (if i / 4 mod 2 = 0 then Workloads.find ~seed:wseed
           else Workloads.tar ~seed:wseed))

let run ctx =
  let tiny = ctx.Ctx.tiny in
  let systems = if tiny then 4 else 24 in
  let syscalls = if tiny then 100 else 1000 in
  let file_bytes = if tiny then 64 * 1024 else file_bytes in
  let pipe_bytes = if tiny then 32 * 1024 else pipe_bytes in
  let kinds = Ctx.input ctx (fun () -> kinds ~seed:ctx.Ctx.seed ~systems) in
  Array.iteri
    (fun i kind ->
      let label = Printf.sprintf "churn%d" i in
      let fs =
        match kind with
        | Replay spec ->
          Some
            (fun ~dram ->
              { (M3.M3fs.default_config ~dram) with
                M3.M3fs.seed = spec.Workloads.sp_seeds })
        | _ -> None
      in
      Ctx.attempt ctx 1;
      let errors = List.length ctx.Ctx.errors in
      Ctx.system ctx ~label ?fs (fun ~services:_ env ->
          let engine = env.Env.engine in
          let s0 = Engine.now engine in
          (match kind with
          | Syscalls -> null_syscalls ctx ~count:syscalls env
          | File_rw block -> file_roundtrip ctx ~label ~bytes:file_bytes ~block env
          | Pipe_xfer block -> pipe_transfer ctx ~label ~bytes:pipe_bytes ~block env
          | Replay spec -> replay ctx ~label spec env);
          Ctx.add ctx "sim_mcycles" (float_of_int (Engine.now engine - s0) /. 1e6);
          0);
      if List.length ctx.Ctx.errors > errors then ctx.Ctx.failed <- ctx.Ctx.failed + 1)
    kinds
