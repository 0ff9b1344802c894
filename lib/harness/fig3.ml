module Account = M3_sim.Account
module Store = M3_mem.Store
module Machine = M3_linux.Machine
module Env = M3.Env
module Errno = M3.Errno
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api

type bars = {
  m3 : Runner.measure;
  lx_ideal : Runner.measure;
  lx : Runner.measure;
}

(* Warm re-read through the mount cache: the cold pass pays the open
   and location round-trips, the warm pass is served from the cached
   attr + extent entries (the service never hears about it). *)
type warm_cell = {
  w_cold : Runner.measure;
  w_warm : Runner.measure;
  w_cold_rt : int;
  w_warm_rt : int;
}

type t = {
  syscall : bars;
  read : bars;
  write : bars;
  pipe : bars;
  warm_read : warm_cell;
}

let total_bytes = 2 * 1024 * 1024
let buf_size = 4096
let ok = Errno.ok_exn

(* The 2 MiB input file, unfragmented (one extent, §5.4). *)
let big_file_seed =
  [
    { M3.M3fs.sd_path = "/bench.dat"; sd_size = total_bytes;
      sd_blocks_per_extent = 2048; sd_dir = false };
  ]

(* --- M3 sides ----------------------------------------------------------- *)

let m3_syscall () =
  Runner.run_m3 ~no_fs:true (fun env ~measured ->
      (* Warm up, then measure one call (results of the first runs are
         discarded, §5.1). *)
      ok (M3.Syscalls.noop env);
      ok (M3.Syscalls.noop env);
      measured (fun () -> ok (M3.Syscalls.noop env)))

let m3_read () =
  Runner.run_m3 ~seeds:big_file_seed (fun env ~measured ->
      Runner.mounted env;
      let buf = Env.alloc_spm env ~size:buf_size in
      let file = ok (Vfs.open_ env "/bench.dat" ~flags:Fs_proto.o_read) in
      measured (fun () ->
          let rec drain () =
            match ok (File.read env file ~local:buf ~len:buf_size) with
            | 0 -> ()
            | _ -> drain ()
          in
          drain ());
      ok (File.close env file))

let m3_write () =
  Runner.run_m3 (fun env ~measured ->
      Runner.mounted env;
      let buf = Env.alloc_spm env ~size:buf_size in
      (* Precomputed data (§5.4): the buffer is filled once, outside. *)
      Store.fill (M3_hw.Pe.spm env.pe) ~addr:buf ~len:buf_size 'w';
      let file =
        ok
          (Vfs.open_ env "/bench.out"
             ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
      in
      measured (fun () ->
          for _ = 1 to total_bytes / buf_size do
            ok (File.write env file ~local:buf ~len:buf_size)
          done;
          ok (File.close env file)))

let check_child env vpe =
  match Vpe_api.wait env vpe with
  | Ok 0 -> ()
  | Ok code -> failwith (Printf.sprintf "pipe producer exited %d" code)
  | Error e -> failwith (Errno.to_string e)

(* Pipe: one VPE produces 2 MiB, the other consumes it. The ring holds
   64 KiB like a Linux pipe buffer. *)
let m3_pipe () =
  let ring = 64 * 1024 in
  Runner.run_m3 ~no_fs:true (fun env ~measured ->
      let reader = ok (Pipe.create_reader env ~ring_size:ring) in
      let vpe =
        ok
          (Vpe_api.create env ~name:"producer"
             ~core:M3_hw.Core_type.General_purpose)
      in
      ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
      ok
        (Vpe_api.run env vpe (fun cenv ->
             let w = ok (Pipe.connect_writer cenv ~ring_size:ring) in
             let buf = Env.alloc_spm cenv ~size:buf_size in
             for _ = 1 to total_bytes / buf_size do
               ok (Pipe.write cenv w ~local:buf ~len:buf_size)
             done;
             ok (Pipe.close_writer cenv w);
             0));
      let buf = Env.alloc_spm env ~size:buf_size in
      measured (fun () ->
          let rec drain () =
            match ok (Pipe.read env reader ~local:buf ~len:buf_size) with
            | 0 -> ()
            | _ -> drain ()
          in
          drain ());
      check_child env vpe)

(* Cold and warm run on separate fresh systems so each measure is one
   clean bracket; [primed] decides whether an unmeasured pass warms the
   mount cache first. Round-trips are the mount's service-request
   counter, delta'd across the bracket. *)
let warm_read_pass ~primed () =
  let rt = ref 0 in
  let m =
    Runner.run_m3 ~seeds:big_file_seed (fun env ~measured ->
        Runner.mounted env;
        ok (Vfs.enable_cache env ~path:"/");
        let buf = Env.alloc_spm env ~size:buf_size in
        let pass () =
          let file = ok (Vfs.open_ env "/bench.dat" ~flags:Fs_proto.o_read) in
          let rec drain () =
            match ok (File.read env file ~local:buf ~len:buf_size) with
            | 0 -> ()
            | _ -> drain ()
          in
          drain ();
          ok (File.close env file)
        in
        if primed then pass ();
        let before = Vfs.round_trips env in
        measured pass;
        rt := Vfs.round_trips env - before)
  in
  (m, !rt)

let m3_warm_read () =
  let cold, cold_rt = warm_read_pass ~primed:false () in
  let warm, warm_rt = warm_read_pass ~primed:true () in
  { w_cold = cold; w_warm = warm; w_cold_rt = cold_rt; w_warm_rt = warm_rt }

(* The PR's acceptance gate: warm costs at least 1.5x fewer service
   round-trips than cold. *)
let warm_ok t =
  let w = t.warm_read in
  w.w_cold_rt > 0 && w.w_warm_rt * 3 <= w.w_cold_rt * 2

(* --- Linux sides ----------------------------------------------------------- *)

let lx_syscall ~cache_ideal () =
  Runner.run_linux ~cache_ideal (fun m ->
      Machine.charge m Account.Os (M3_linux.Machine.arch m).M3_linux.Arch.syscall)

let lx_read ~cache_ideal () =
  Runner.run_linux ~cache_ideal ~seeds:big_file_seed (fun m ->
      match Machine.open_file m "/bench.dat" ~create:false ~trunc:false with
      | None -> failwith "missing seed"
      | Some fd ->
        let rec drain () =
          if Machine.read m fd buf_size > 0 then drain ()
        in
        drain ();
        Machine.close m fd)

let lx_write ~cache_ideal () =
  Runner.run_linux ~cache_ideal (fun m ->
      match Machine.open_file m "/bench.out" ~create:true ~trunc:true with
      | None -> failwith "open failed"
      | Some fd ->
        for _ = 1 to total_bytes / buf_size do
          ignore (Machine.write m fd buf_size)
        done;
        Machine.close m fd)

(* Writer and reader time-share the single core; the driver below is
   the scheduler. *)
let lx_pipe ~cache_ideal () =
  Runner.run_linux ~cache_ideal (fun m ->
      let p = Machine.pipe m in
      let remaining = ref total_bytes in
      let received = ref 0 in
      let closed = ref false in
      while !received < total_bytes do
        (* writer slice *)
        let writer_blocked = ref false in
        while (not !writer_blocked) && !remaining > 0 do
          match Machine.pipe_write m p (min buf_size !remaining) with
          | `Wrote n -> remaining := !remaining - n
          | `Blocked -> writer_blocked := true
        done;
        if !remaining = 0 && not !closed then begin
          Machine.pipe_close_write m p;
          closed := true
        end;
        Machine.context_switch m;
        (* reader slice *)
        let reader_blocked = ref false in
        while (not !reader_blocked) && !received < total_bytes do
          match Machine.pipe_read m p buf_size with
          | `Read n -> received := !received + n
          | `Eof -> reader_blocked := true
          | `Blocked -> reader_blocked := true
        done;
        if !received < total_bytes then Machine.context_switch m
      done)

let run () =
  let bars m3 lx_ideal lx = { m3; lx_ideal; lx } in
  {
    syscall =
      bars (m3_syscall ())
        (lx_syscall ~cache_ideal:true ())
        (lx_syscall ~cache_ideal:false ());
    read =
      bars (m3_read ()) (lx_read ~cache_ideal:true ())
        (lx_read ~cache_ideal:false ());
    write =
      bars (m3_write ())
        (lx_write ~cache_ideal:true ())
        (lx_write ~cache_ideal:false ());
    pipe =
      bars (Runner.serialized (m3_pipe ()))
        (lx_pipe ~cache_ideal:true ())
        (lx_pipe ~cache_ideal:false ());
    warm_read = m3_warm_read ();
  }

let print ppf t =
  let row name bars =
    let cell m =
      Printf.sprintf "%10s (xfers %8s, other %8s)"
        (Runner.fmt_k m.Runner.m_cycles)
        (Runner.fmt_k m.Runner.m_xfer)
        (Runner.fmt_k (Runner.other m))
    in
    Format.fprintf ppf "  %-8s M3 %s | Lx-$ %s | Lx %s@." name (cell bars.m3)
      (cell bars.lx_ideal) (cell bars.lx)
  in
  Format.fprintf ppf
    "Figure 3: system calls and file operations (2 MiB, 4 KiB buffers)@.";
  row "syscall" t.syscall;
  row "read" t.read;
  row "write" t.write;
  row "pipe" t.pipe;
  let w = t.warm_read in
  Format.fprintf ppf
    "  warm re-read (mount cache): cold %s / %d round-trips -> warm %s / %d \
     %s@."
    (Runner.fmt_k w.w_cold.Runner.m_cycles)
    w.w_cold_rt
    (Runner.fmt_k w.w_warm.Runner.m_cycles)
    w.w_warm_rt
    (if warm_ok t then "PASS (>= 1.5x fewer round-trips)"
     else "FAIL (< 1.5x fewer round-trips)");
  Format.fprintf ppf
    "  paper: syscall 200 vs 410 cy; M3 < Lx-$ < Lx on all three file ops@."
