(* Quickstart: boot an M3 system, run an application VPE, use the
   filesystem, and run a lambda on another PE — the essentials of the
   public API in ~60 lines.

   Run with: dune exec examples/quickstart.exe *)

module Engine = M3_sim.Engine

let ok = M3.Errno.ok_exn

let () =
  (* 1. A simulation engine and a booted system: 16 PEs on a mesh,
        the kernel on PE 0, m3fs as a service on another PE. *)
  let engine = Engine.create () in
  let sys = M3.Bootstrap.start engine in

  (* 2. Launch an application in a fresh VPE. It runs bare-metal on
        its own PE; everything below goes through the DTU. *)
  let exit_code =
    M3.Bootstrap.launch sys ~name:"quickstart" (fun env ->
        (* A null system call: a message to the kernel PE and back.
           (One warm-up call, so the measurement does not overlap the
           kernel still booting other PEs.) *)
        ok (M3.Syscalls.noop env);
        let t0 = Engine.now env.M3.Env.engine in
        ok (M3.Syscalls.noop env);
        Printf.printf "null syscall: %d cycles\n"
          (Engine.now env.M3.Env.engine - t0);

        (* The filesystem: mount, write, read back. Data moves between
           this PE's scratchpad and DRAM through memory capabilities
           that m3fs delegates for the file's extents. *)
        ok (M3.Vfs.mount_root env);
        let file =
          ok
            (M3.Vfs.open_ env "/greeting"
               ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
        in
        ok (M3.File.write_string env file "hello from a VPE!");
        ok (M3.File.close env file);
        let file = ok (M3.Vfs.open_ env "/greeting" ~flags:M3.Fs_proto.o_read) in
        let contents = ok (M3.File.read_all env file ~max:256) in
        ok (M3.File.close env file);
        Printf.printf "file says: %s\n" contents;

        (* The paper's lambda example (§4.5.5): run a computation on
           another PE and collect its exit code. *)
        let a = 4 and b = 5 in
        let vpe =
          ok
            (M3.Vpe_api.create env ~name:"adder"
               ~core:M3_hw.Core_type.General_purpose)
        in
        ok (M3.Vpe_api.run env vpe (fun _child -> a + b));
        Printf.printf "sum computed on pe%d: %d\n" vpe.M3.Vpe_api.pe_id
          (ok (M3.Vpe_api.wait env vpe));
        0)
  in

  (* 3. Drive the simulation to completion. *)
  let cycles = Engine.run engine in
  match M3_sim.Process.Ivar.peek exit_code with
  | Some 0 -> Printf.printf "quickstart finished after %d cycles\n" cycles
  | Some c ->
    Printf.printf "quickstart FAILED with exit code %d\n" c;
    exit 1
  | None ->
    print_endline "quickstart did not terminate";
    exit 1
