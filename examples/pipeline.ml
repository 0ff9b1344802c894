(* Pipeline: the paper's cat+tr scenario (§5.6) as a worked example.

   A child VPE ("cat") streams a file into a pipe; the parent ("tr")
   reads the pipe, replaces every 'a' with 'b', and writes the result
   to a new file. The pipe's data lives in a DRAM ringbuffer that both
   PEs access through a shared memory capability; messages only carry
   positions and lengths, and the kernel is not involved after setup.

   Run with: dune exec examples/pipeline.exe *)

module Engine = M3_sim.Engine
module Store = M3_mem.Store
module Env = M3.Env
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api

let ok = M3.Errno.ok_exn
let chunk = 4096

let input_seed =
  [
    (* banana wisdom, repeated to span multiple blocks *)
    { M3.M3fs.sd_path = "/input"; sd_size = 24 * 1024;
      sd_blocks_per_extent = 16; sd_dir = false };
  ]

let () =
  let engine = Engine.create () in
  let fs ~dram = { (M3.M3fs.default_config ~dram) with seed = input_seed } in
  let sys = M3.Bootstrap.start ~fs engine in
  let exit_code =
    M3.Bootstrap.launch sys ~name:"tr" (fun env ->
        ok (M3.Vfs.mount_root env);

        (* Make the input recognizable: overwrite with 'a'-rich text. *)
        let file =
          ok (M3.Vfs.open_ env "/input" ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_trunc))
        in
        let line = "all cats and bananas ahead! " in
        for _ = 1 to 256 do
          ok (M3.File.write_string env file line)
        done;
        ok (M3.File.close env file);

        (* The pipe: this VPE is the reader; the child gets the writer
           end via capability delegation before it starts. *)
        let reader = ok (Pipe.create_reader env ~ring_size:(64 * 1024)) in
        let vpe =
          ok (Vpe_api.create env ~name:"cat" ~core:M3_hw.Core_type.General_purpose)
        in
        ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
        ok
          (Vpe_api.run env vpe (fun cenv ->
               (* the child: cat /input > pipe *)
               ok (M3.Vfs.mount_root cenv);
               let w = ok (Pipe.connect_writer cenv ~ring_size:(64 * 1024)) in
               let buf = Env.alloc_spm cenv ~size:chunk in
               let file = ok (M3.Vfs.open_ cenv "/input" ~flags:M3.Fs_proto.o_read) in
               let rec pump total =
                 match ok (M3.File.read cenv file ~local:buf ~len:chunk) with
                 | 0 -> total
                 | n ->
                   ok (Pipe.write cenv w ~local:buf ~len:n);
                   pump (total + n)
               in
               let total = pump 0 in
               Printf.printf "[cat on pe%d] streamed %d bytes\n"
                 (M3_hw.Pe.id cenv.Env.pe) total;
               ok (M3.File.close cenv file);
               ok (Pipe.close_writer cenv w);
               0));

        (* the parent: tr a b < pipe > /output *)
        let spm = M3_hw.Pe.spm env.Env.pe in
        let buf = Env.alloc_spm env ~size:chunk in
        let out =
          ok
            (M3.Vfs.open_ env "/output"
               ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
        in
        let translated = ref 0 in
        let rec pump () =
          match ok (Pipe.read env reader ~local:buf ~len:chunk) with
          | 0 -> ()
          | n ->
            for i = 0 to n - 1 do
              if Store.read_u8 spm ~addr:(buf + i) = Char.code 'a' then begin
                Store.write_u8 spm ~addr:(buf + i) (Char.code 'b');
                incr translated
              end
            done;
            ok (M3.File.write env out ~local:buf ~len:n);
            pump ()
        in
        pump ();
        ok (M3.File.close env out);
        Printf.printf "[tr on pe%d] translated %d 'a's\n"
          (M3_hw.Pe.id env.Env.pe) !translated;
        (match ok (Vpe_api.wait env vpe) with
        | 0 -> ()
        | c -> Printf.printf "cat exited with %d\n" c);

        (* Verify the result end to end. *)
        let out = ok (M3.Vfs.open_ env "/output" ~flags:M3.Fs_proto.o_read) in
        let s = ok (M3.File.read_all env out ~max:64) in
        ok (M3.File.close env out);
        Printf.printf "output starts with: %s...\n" (String.sub s 0 28);
        if String.length s >= 3 && String.sub s 0 3 = "bll" then 0 else 1)
  in
  let cycles = Engine.run engine in
  match M3_sim.Process.Ivar.peek exit_code with
  | Some 0 -> Printf.printf "pipeline finished after %d cycles\n" cycles
  | Some c ->
    Printf.printf "pipeline FAILED with code %d\n" c;
    exit 1
  | None ->
    print_endline "pipeline did not terminate";
    exit 1
