(* End-to-end tests of the M3 OS: boot, syscalls, capabilities, VPEs,
   m3fs, pipes. Everything runs through the simulated DTUs — there is
   no back door. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Account = M3_sim.Account
module Store = M3_mem.Store
module Perm = M3_mem.Perm
module Pe = M3_hw.Pe
module Platform = M3_hw.Platform

module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Syscalls = M3.Syscalls
module Gate = M3.Gate
module Vpe_api = M3.Vpe_api
module Vfs = M3.Vfs
module File = M3.File
module Fs_proto = M3.Fs_proto
module Pipe = M3.Pipe
module M3fs = M3.M3fs
module Fs_image = M3.Fs_image
module Kernel = M3.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = Errno.ok_exn

let expect_errno expected = function
  | Ok _ -> Alcotest.failf "expected error %s" (Errno.to_string expected)
  | Error e -> check_str "errno" (Errno.to_string expected) (Errno.to_string e)

(* Runs [main] as a single app on a booted system (with filesystem by
   default); returns after the engine drained. *)
let run_app ?platform_config ?fs ?(no_fs = false) main =
  let engine = Engine.create () in
  let sys = Bootstrap.start ?platform_config ?fs ~no_fs engine in
  let exit = Bootstrap.launch sys ~name:"test-app" (fun env -> main sys env) in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  sys

(* --- syscalls ---------------------------------------------------------- *)

let test_boot_and_noop () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         ok (Syscalls.noop env);
         0))

let test_null_syscall_costs_200_cycles () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         (* Warm up, then measure — like the paper's methodology. *)
         ok (Syscalls.noop env);
         ok (Syscalls.noop env);
         let t0 = Engine.now env.engine in
         ok (Syscalls.noop env);
         let elapsed = Engine.now env.engine - t0 in
         check_bool
           (Printf.sprintf "null syscall 170..240 cycles (got %d)" elapsed)
           true
           (elapsed >= 170 && elapsed <= 240);
         0))

let test_noop_account_split () =
  let account = Account.create () in
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let exit =
    Bootstrap.launch sys ~name:"acct" ~account (fun env ->
        (* Warm up so the measured syscall does not overlap kernel boot. *)
        ok (Syscalls.noop env);
        Account.reset account;
        ok (Syscalls.noop env);
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  let xfer = Account.get account Account.Xfer in
  let os = Account.get account Account.Os in
  check_bool
    (Printf.sprintf "xfer share 15..60 (got %d)" xfer)
    true (xfer >= 15 && xfer <= 60);
  (* Includes the exit syscall's marshalling after the measured noop. *)
  check_bool
    (Printf.sprintf "os share 120..260 (got %d)" os)
    true
    (os >= 120 && os <= 260)

let test_req_mem_and_access () =
  ignore
    (run_app ~no_fs:true (fun sys env ->
         let gate, addr = ok (Gate.req_mem env ~size:8192 ~perm:Perm.rw) in
         let spm = Pe.spm env.pe in
         let buf = Env.alloc_spm env ~size:64 in
         Store.write_string spm ~addr:buf "capability-backed dram";
         ok (Gate.write env gate ~off:100 ~local:buf ~len:22);
         let buf2 = Env.alloc_spm env ~size:64 in
         ok (Gate.read env gate ~off:100 ~local:buf2 ~len:22);
         check_str "roundtrip" "capability-backed dram"
           (Store.read_string spm ~addr:buf2 ~len:22);
         (* The bytes really are at the address the kernel allocated. *)
         check_str "in dram" "capability-backed dram"
           (Store.read_string
              (Platform.dram sys.Bootstrap.platform)
              ~addr:(addr + 100) ~len:22);
         0))

let test_derive_mem_narrows () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         let gate, _ = ok (Gate.req_mem env ~size:4096 ~perm:Perm.rw) in
         let sub_sel =
           ok
             (Syscalls.derive_mem env ~src_sel:gate.Gate.mg_user.Env.eu_sel
                ~off:1024 ~size:512 ~perm:Perm.r)
         in
         let sub = Gate.mem_gate_of_sel ~sel:sub_sel ~size:512 in
         let buf = Env.alloc_spm env ~size:64 in
         ok (Gate.read env sub ~off:0 ~local:buf ~len:64);
         (* Writing through the read-only child must fail. *)
         expect_errno (Errno.E_dtu "no permission")
           (Gate.write env sub ~off:0 ~local:buf ~len:8);
         (* Widening is rejected at derive time. *)
         expect_errno Errno.E_no_perm
           (Syscalls.derive_mem env ~src_sel:sub_sel ~off:0 ~size:256
              ~perm:Perm.rw);
         expect_errno Errno.E_inv_args
           (Syscalls.derive_mem env ~src_sel:sub_sel ~off:256 ~size:512
              ~perm:Perm.r);
         0))

let test_revoke_frees_dram () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let before = Kernel.dram_avail sys.Bootstrap.kernel in
  let exit =
    Bootstrap.launch sys ~name:"revoker" (fun env ->
        let gate, _ = ok (Gate.req_mem env ~size:65536 ~perm:Perm.rw) in
        ok (Syscalls.revoke env ~sel:gate.Gate.mg_user.Env.eu_sel);
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  check_int "dram fully returned (incl. VPE exit cleanup)" before
    (Kernel.dram_avail sys.Bootstrap.kernel)

let test_exit_cleans_up () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let before_free = Kernel.free_pes sys.Bootstrap.kernel in
  let before_dram = Kernel.dram_avail sys.Bootstrap.kernel in
  let exit =
    Bootstrap.launch sys ~name:"leaker" (fun env ->
        (* Allocate and DON'T free: exit must clean up. *)
        let _gate = ok (Gate.req_mem env ~size:32768 ~perm:Perm.rw) in
        7)
  in
  ignore (Engine.run engine);
  check_int "exit code" 7 (Option.get (Process.Ivar.peek exit));
  check_int "PE returned" before_free (Kernel.free_pes sys.Bootstrap.kernel);
  check_int "dram returned" before_dram (Kernel.dram_avail sys.Bootstrap.kernel);
  check_int "no live vpes" 0 (Kernel.vpe_count sys.Bootstrap.kernel)

(* --- VPEs ---------------------------------------------------------------- *)

let test_vpe_run_lambda () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         (* The paper's example: compute a sum on another PE. *)
         let a = 4 and b = 5 in
         let vpe =
           ok (Vpe_api.create env ~name:"child"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         ok (Vpe_api.run env vpe (fun _child_env -> a + b));
         check_int "lambda result via exit code" 9 (ok (Vpe_api.wait env vpe));
         0))

let test_vpe_wait_is_deferred () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         let t0 = Engine.now env.engine in
         let vpe =
           ok (Vpe_api.create env ~name:"sleeper"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         ok
           (Vpe_api.run env vpe (fun _ ->
                Process.wait 50_000;
                3));
         check_int "exit code" 3 (ok (Vpe_api.wait env vpe));
         let elapsed = Engine.now env.engine - t0 in
         check_bool "wait blocked for the child's 50k cycles" true
           (elapsed >= 50_000);
         0))

let test_vpe_no_free_pe () =
  let config = { Platform.default_config with pe_count = 2 } in
  (* PE0 kernel, PE1 the app itself: no PE left for a child. *)
  ignore
    (run_app ~platform_config:config ~no_fs:true (fun _sys env ->
         expect_errno Errno.E_no_pe
           (Vpe_api.create env ~name:"nope"
              ~core:M3_hw.Core_type.General_purpose);
         0))

let test_vpe_revoke_kills_child () =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs:true engine in
  let child_progress = ref 0 in
  let exit =
    Bootstrap.launch sys ~name:"parent" (fun env ->
        let vpe =
          ok (Vpe_api.create env ~name:"runaway"
                ~core:M3_hw.Core_type.General_purpose)
        in
        ok
          (Vpe_api.run env vpe (fun _ ->
               (* Runs forever unless killed. *)
               let rec spin () =
                 Process.wait 1000;
                 incr child_progress;
                 spin ()
               in
               spin ()));
        Process.wait 10_000;
        ok (Vpe_api.revoke env vpe);
        0)
  in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit;
  let progress_at_kill = !child_progress in
  check_bool "child made some progress" true (progress_at_kill > 0);
  check_bool "child stopped after revoke" true (progress_at_kill < 15);
  check_int "no live vpes" 0 (Kernel.vpe_count sys.Bootstrap.kernel)

let test_child_talks_to_parent () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         (* Parent creates a receive gate, delegates a send gate to the
            child; child sends a message; parent replies. *)
         let rgate = ok (Gate.create_recv env ~slot_order:7 ~slot_count:4) in
         let vpe =
           ok (Vpe_api.create env ~name:"talker"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         let sgate =
           ok
             (Gate.create_send env rgate ~label:42L
                ~credits:(M3_dtu.Endpoint.Credits 2))
         in
         ok
           (Vpe_api.delegate env vpe ~own_sel:sgate.Gate.sg_user.Env.eu_sel
              ~other_sel:500);
         ok
           (Vpe_api.run env vpe (fun child_env ->
                let sg = Gate.send_gate_of_sel 500 in
                let reply_gate =
                  ok (Gate.create_recv child_env ~slot_order:7 ~slot_count:2)
                in
                let answer =
                  ok
                    (Gate.call child_env sg ~reply_gate
                       (Bytes.of_string "ping from child"))
                in
                if Bytes.to_string answer = "pong from parent" then 0 else 1));
         let msg = Gate.recv env rgate in
         Alcotest.(check int64) "label identifies sender" 42L msg.header.label;
         check_str "request" "ping from child" (Bytes.to_string msg.payload);
         ok
           (Gate.reply env rgate ~slot:msg.slot
              (Bytes.of_string "pong from parent"));
         check_int "child verified reply" 0 (ok (Vpe_api.wait env vpe));
         0))

(* --- m3fs ------------------------------------------------------------------ *)

let test_fs_write_read_roundtrip () =
  let sys =
    run_app (fun _sys env ->
         ok (Vfs.mount_root env);
         let file =
           ok
             (Vfs.open_ env "/hello.txt"
                ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
         in
         ok (File.write_string env file "hello m3fs, extents and caps!");
         ok (File.close env file);
         let file = ok (Vfs.open_ env "/hello.txt" ~flags:Fs_proto.o_read) in
         let contents = ok (File.read_all env file ~max:1024) in
         ok (File.close env file);
         check_str "roundtrip" "hello m3fs, extents and caps!" contents;
         0)
  in
  (* The image itself stays consistent. *)
  match M3fs.current_image sys.Bootstrap.engine with
  | None -> Alcotest.fail "no fs image"
  | Some fs -> (
    match Fs_image.fsck fs with
    | Ok () -> ()
    | Error e -> Alcotest.failf "fsck: %s" e)

let test_fs_seeded_file_content () =
  let seed =
    [
      { M3fs.sd_path = "/data.bin"; sd_size = 8192; sd_blocks_per_extent = 4;
        sd_dir = false };
    ]
  in
  ignore
    (run_app
       ~fs:(fun ~dram -> { (M3fs.default_config ~dram) with seed })
       (fun _sys env ->
         ok (Vfs.mount_root env);
         let st = ok (Vfs.stat env "/data.bin") in
         check_int "size" 8192 st.Fs_proto.st_size;
         check_int "extents of 4 blocks" 2 st.Fs_proto.st_extents;
         let file = ok (Vfs.open_ env "/data.bin" ~flags:Fs_proto.o_read) in
         let contents = ok (File.read_all env file ~max:10_000) in
         ok (File.close env file);
         check_int "read it all" 8192 (String.length contents);
         0))

let test_fs_meta_ops () =
  ignore
    (run_app (fun _sys env ->
         ok (Vfs.mount_root env);
         ok (Vfs.mkdir env "/dir");
         ok (Vfs.mkdir env "/dir/sub");
         let f =
           ok
             (Vfs.open_ env "/dir/sub/x"
                ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
         in
         ok (File.write_string env f "x");
         ok (File.close env f);
         let st = ok (Vfs.stat env "/dir/sub/x") in
         check_int "size 1" 1 st.Fs_proto.st_size;
         check_bool "not dir" false st.Fs_proto.st_is_dir;
         check_bool "dir is dir" true (ok (Vfs.stat env "/dir")).Fs_proto.st_is_dir;
         (* readdir *)
         (match ok (Vfs.readdir env "/dir" ~index:0) with
         | Some ("sub", _) -> ()
         | Some (n, _) -> Alcotest.failf "unexpected entry %s" n
         | None -> Alcotest.fail "empty dir");
         check_bool "end of dir" true (ok (Vfs.readdir env "/dir" ~index:1) = None);
         (* errors *)
         expect_errno Errno.E_not_found (Vfs.stat env "/nope");
         expect_errno Errno.E_not_empty (Vfs.unlink env "/dir");
         ok (Vfs.unlink env "/dir/sub/x");
         ok (Vfs.unlink env "/dir/sub");
         ok (Vfs.unlink env "/dir");
         expect_errno Errno.E_not_found (Vfs.stat env "/dir");
         0))

let test_fs_big_file_write_then_read () =
  (* 256 KiB across many appends; exercises extent allocation, close
     truncation and sequential reads with real data. *)
  let sys =
    run_app (fun _sys env ->
         ok (Vfs.mount_root env);
         let spm = Pe.spm env.pe in
         let buf = Env.alloc_spm env ~size:4096 in
         let f =
           ok
             (Vfs.open_ env "/big"
                ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
         in
         let total = 256 * 1024 in
         let pattern i = Char.chr ((i * 7 + (i / 4096)) land 0xff) in
         let written = ref 0 in
         while !written < total do
           for i = 0 to 4095 do
             Store.write_u8 spm ~addr:(buf + i) (Char.code (pattern (!written + i)))
           done;
           ok (File.write env f ~local:buf ~len:4096);
           written := !written + 4096
         done;
         ok (File.close env f);
         let st = ok (Vfs.stat env "/big") in
         check_int "size" total st.Fs_proto.st_size;
         (* Over-allocation was truncated: 256 KiB = 256 blocks of 1 KiB
            = exactly one 256-block extent. *)
         check_int "one extent after truncate" 1 st.Fs_proto.st_extents;
         let f = ok (Vfs.open_ env "/big" ~flags:Fs_proto.o_read) in
         let read = ref 0 in
         let bad = ref 0 in
         let continue = ref true in
         while !continue do
           match ok (File.read env f ~local:buf ~len:4096) with
           | 0 -> continue := false
           | n ->
             for i = 0 to n - 1 do
               if Store.read_u8 spm ~addr:(buf + i)
                  <> Char.code (pattern (!read + i))
               then incr bad
             done;
             read := !read + n
         done;
         ok (File.close env f);
         check_int "read back all" total !read;
         check_int "no corrupted bytes" 0 !bad;
         0)
  in
  match M3fs.current_image sys.Bootstrap.engine with
  | None -> Alcotest.fail "no fs image"
  | Some fs -> (
    match Fs_image.fsck fs with
    | Ok () -> ()
    | Error e -> Alcotest.failf "fsck: %s" e)

(* A readdir index is client input: a negative one (an index of 2^63
   or more on the wire) is no entry, and m3fs keeps serving. *)
let test_fs_readdir_negative_index () =
  ignore
    (run_app (fun _sys env ->
         ok (Vfs.mount_root env);
         let flags = Fs_proto.o_write lor Fs_proto.o_create in
         ok (File.close env (ok (Vfs.open_ env "/a" ~flags)));
         let before = ok (Vfs.readdir env "/" ~index:(-1)) in
         match (before, ok (Vfs.readdir env "/" ~index:0)) with
         | None, Some ("a", _) -> 0
         | _ -> 1))

let test_fs_seek () =
  ignore
    (run_app (fun _sys env ->
         ok (Vfs.mount_root env);
         let f =
           ok
             (Vfs.open_ env "/s"
                ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
         in
         ok (File.write_string env f "0123456789");
         ok (File.close env f);
         let f = ok (Vfs.open_ env "/s" ~flags:Fs_proto.o_read) in
         ok (File.seek env f 4);
         let tail = ok (File.read_all env f ~max:100) in
         check_str "seek to 4" "456789" tail;
         ok (File.seek env f 0);
         check_str "rewind" "0123456789" (ok (File.read_all env f ~max:100));
         ok (File.close env f);
         0))

(* --- pipes ------------------------------------------------------------------- *)

let test_pipe_parent_reads_child_writes () =
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         let reader = ok (Pipe.create_reader env ~ring_size:16384) in
         let vpe =
           ok (Vpe_api.create env ~name:"writer"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
         ok
           (Vpe_api.run env vpe (fun cenv ->
                let w = ok (Pipe.connect_writer cenv ~ring_size:16384) in
                let spm = Pe.spm cenv.Env.pe in
                let buf = Env.alloc_spm cenv ~size:2048 in
                for round = 0 to 9 do
                  Store.write_string spm ~addr:buf
                    (Printf.sprintf "[chunk %02d padded to 32 b]...." round);
                  ok (Pipe.write cenv w ~local:buf ~len:32)
                done;
                ok (Pipe.close_writer cenv w);
                0));
         let spm = Pe.spm env.pe in
         let buf = Env.alloc_spm env ~size:2048 in
         let collected = Buffer.create 512 in
         let continue = ref true in
         while !continue do
           match ok (Pipe.read env reader ~local:buf ~len:64) with
           | 0 -> continue := false
           | n ->
             Buffer.add_string collected (Store.read_string spm ~addr:buf ~len:n)
         done;
         check_int "total bytes" 320 (Buffer.length collected);
         check_bool "first chunk intact" true
           (String.length (Buffer.contents collected) >= 32
           && String.sub (Buffer.contents collected) 0 10 = "[chunk 00 ");
         check_int "child exit" 0 (ok (Vpe_api.wait env vpe));
         0))

let test_pipe_blocks_when_full () =
  (* Ring of 1 KiB, writer pushes 8 KiB: must block and interleave with
     the reader rather than lose data. *)
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         let reader = ok (Pipe.create_reader env ~ring_size:1024) in
         let vpe =
           ok (Vpe_api.create env ~name:"flood"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
         ok
           (Vpe_api.run env vpe (fun cenv ->
                let w = ok (Pipe.connect_writer cenv ~ring_size:1024) in
                let buf = Env.alloc_spm cenv ~size:512 in
                let spm = Pe.spm cenv.Env.pe in
                for i = 0 to 15 do
                  Store.fill spm ~addr:buf ~len:512
                    (Char.chr (Char.code 'a' + i));
                  ok (Pipe.write cenv w ~local:buf ~len:512)
                done;
                ok (Pipe.close_writer cenv w);
                0));
         let buf = Env.alloc_spm env ~size:512 in
         let spm = Pe.spm env.pe in
         let histogram = Array.make 26 0 in
         let total = ref 0 in
         let continue = ref true in
         while !continue do
           match ok (Pipe.read env reader ~local:buf ~len:512) with
           | 0 -> continue := false
           | n ->
             for i = 0 to n - 1 do
               let c = Store.read_u8 spm ~addr:(buf + i) - Char.code 'a' in
               if c >= 0 && c < 26 then histogram.(c) <- histogram.(c) + 1
             done;
             total := !total + n
         done;
         check_int "all 8 KiB arrived" 8192 !total;
         for i = 0 to 15 do
           check_int (Printf.sprintf "letter %c complete" (Char.chr (97 + i)))
             512 histogram.(i)
         done;
         check_int "child exit" 0 (ok (Vpe_api.wait env vpe));
         0))

let test_pipe_parent_writes_child_reads () =
  (* The FFT-offload topology: parent obtains the child's send gate. *)
  ignore
    (run_app ~no_fs:true (fun _sys env ->
         let vpe =
           ok (Vpe_api.create env ~name:"sink"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         let received = ref 0 in
         ok
           (Vpe_api.run env vpe (fun cenv ->
                let r = ok (Pipe.serve_reader cenv ~ring_size:8192) in
                let buf = Env.alloc_spm cenv ~size:1024 in
                let rec drain acc =
                  match ok (Pipe.read cenv r ~local:buf ~len:1024) with
                  | 0 -> acc
                  | n -> drain (acc + n)
                in
                received := drain 0;
                0));
         let w =
           ok
             (Pipe.connect_writer_to_child env ~vpe_sel:vpe.Vpe_api.vpe_sel
                ~ring_size:8192)
         in
         let buf = Env.alloc_spm env ~size:1024 in
         for _ = 1 to 20 do
           ok (Pipe.write env w ~local:buf ~len:1000)
         done;
         ok (Pipe.close_writer env w);
         check_int "child exit" 0 (ok (Vpe_api.wait env vpe));
         check_int "bytes received" 20_000 !received;
         0))

(* --- exec ------------------------------------------------------------------ *)

let test_exec_from_filesystem () =
  ignore
    (run_app (fun _sys env ->
         M3.Program.register env.Env.engine ~name:"hello-prog" ~image_bytes:4096
           (fun _env -> 42);
         ok (Vfs.mount_root env);
         (* Install the "binary": a real file whose content names the
            program, like a shebang. *)
         let f =
           ok
             (Vfs.open_ env "/bin-hello"
                ~flags:(Fs_proto.o_write lor Fs_proto.o_create))
         in
         ok (File.write_string env f (M3.Program.shebang "hello-prog"));
         ok (File.close env f);
         let vpe =
           ok (Vpe_api.create env ~name:"exec"
                 ~core:M3_hw.Core_type.General_purpose)
         in
         ok (Vpe_api.exec env vpe "/bin-hello");
         check_int "exec'd exit code" 42 (ok (Vpe_api.wait env vpe));
         0))

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "os.syscalls",
      [
        tc "boot and null syscall" test_boot_and_noop;
        tc "null syscall ≈ 200 cycles" test_null_syscall_costs_200_cycles;
        tc "xfer/os accounting split" test_noop_account_split;
        tc "req_mem and DTU access" test_req_mem_and_access;
        tc "derive_mem narrows perms and bounds" test_derive_mem_narrows;
        tc "revoke frees DRAM" test_revoke_frees_dram;
        tc "exit cleans up PE, DRAM, caps" test_exit_cleans_up;
      ] );
    ( "os.vpe",
      [
        tc "run lambda on another PE" test_vpe_run_lambda;
        tc "wait reply is deferred" test_vpe_wait_is_deferred;
        tc "no free PE" test_vpe_no_free_pe;
        tc "revoke kills child" test_vpe_revoke_kills_child;
        tc "child-parent channel via delegation" test_child_talks_to_parent;
        tc "exec from filesystem" test_exec_from_filesystem;
      ] );
    ( "os.m3fs",
      [
        tc "write/read roundtrip + fsck" test_fs_write_read_roundtrip;
        tc "seeded content visible" test_fs_seeded_file_content;
        tc "meta operations and errors" test_fs_meta_ops;
        tc "256 KiB file, extents, truncate" test_fs_big_file_write_then_read;
        tc "seek" test_fs_seek;
        tc "readdir with a negative index" test_fs_readdir_negative_index;
      ] );
    ( "os.pipe",
      [
        tc "parent reads, child writes" test_pipe_parent_reads_child_writes;
        tc "blocks when ring full, no loss" test_pipe_blocks_when_full;
        tc "parent writes, child reads" test_pipe_parent_writes_child_reads;
      ] );
  ]
