(* Accelerator offload: the paper's Fig. 7 scenario as a worked
   example. The parent generates complex samples and writes them into
   a pipe; a child VPE reads the pipe, performs an FFT, and writes the
   spectrum to a file. The child's code is identical whether it runs
   on a general-purpose core or on the FFT accelerator — only the
   requested PE type differs, which is the paper's point: fast OS
   abstractions lower the bar for using accelerators.

   Run with: dune exec examples/fft_offload.exe *)

module Engine = M3_sim.Engine
module Store = M3_mem.Store
module Core_type = M3_hw.Core_type
module Fft = M3_hw.Fft
module Env = M3.Env
module Pipe = M3.Pipe
module Vpe_api = M3.Vpe_api

let ok = M3.Errno.ok_exn
let data_bytes = 16 * 1024 (* 1024 complex points *)
let tone_bin = 37

(* The child: pipe -> FFT -> file. *)
let fft_child cenv =
  let accel = Core_type.equal (M3_hw.Pe.core cenv.Env.pe) Core_type.Fft_accelerator in
  Printf.printf "[fft on pe%d] running on a %s core\n"
    (M3_hw.Pe.id cenv.Env.pe)
    (Core_type.to_string (M3_hw.Pe.core cenv.Env.pe));
  let r = ok (Pipe.serve_reader cenv ~ring_size:data_bytes) in
  ok (M3.Vfs.mount_root cenv);
  let buf = Env.alloc_spm cenv ~size:data_bytes in
  let rec fill off =
    if off >= data_bytes then off
    else
      match ok (Pipe.read cenv r ~local:(buf + off) ~len:(data_bytes - off)) with
      | 0 -> off
      | n -> fill (off + n)
  in
  ignore (fill 0);
  let spm = M3_hw.Pe.spm cenv.Env.pe in
  let t0 = Engine.now cenv.Env.engine in
  let spectrum = Fft.transform_bytes (Store.read_bytes spm ~addr:buf ~len:data_bytes) in
  M3.Env.charge cenv M3_sim.Account.App
    (M3_hw.Cost_model.fft_cycles ~accel ~points:(Fft.points_of_bytes data_bytes));
  Printf.printf "[fft on pe%d] transform took %d cycles\n"
    (M3_hw.Pe.id cenv.Env.pe)
    (Engine.now cenv.Env.engine - t0);
  Store.write_bytes spm ~addr:buf spectrum ~pos:0 ~len:data_bytes;
  let out =
    ok
      (M3.Vfs.open_ cenv "/spectrum"
         ~flags:(M3.Fs_proto.o_write lor M3.Fs_proto.o_create))
  in
  ok (M3.File.write cenv out ~local:buf ~len:data_bytes);
  ok (M3.File.close cenv out);
  0

let run_variant ~core =
  let engine = Engine.create () in
  let core_at i = if i = 7 then Core_type.Fft_accelerator else Core_type.General_purpose in
  let config = { M3_hw.Platform.default_config with pe_count = 8; core_at } in
  let sys = M3.Bootstrap.start ~platform_config:config engine in
  let exit_code =
    M3.Bootstrap.launch sys ~name:"chain" (fun env ->
        ok (M3.Vfs.mount_root env);
        let t0 = Engine.now env.Env.engine in
        (* Request a PE of the desired type; the code run on it is the
           same either way. *)
        let vpe = ok (Vpe_api.create env ~name:"fft" ~core) in
        ok (Vpe_api.run env vpe fft_child);
        let w =
          ok
            (Pipe.connect_writer_to_child env ~vpe_sel:vpe.Vpe_api.vpe_sel
               ~ring_size:data_bytes)
        in
        (* A pure tone at [tone_bin]: the FFT must concentrate all
           energy there — checked below. *)
        let spm = M3_hw.Pe.spm env.Env.pe in
        let buf = Env.alloc_spm env ~size:data_bytes in
        let points = Fft.points_of_bytes data_bytes in
        for p = 0 to points - 1 do
          let phase =
            2.0 *. Float.pi *. float_of_int (tone_bin * p) /. float_of_int points
          in
          Store.write_i64 spm ~addr:(buf + (p * 16)) (Int64.bits_of_float (cos phase));
          Store.write_i64 spm ~addr:(buf + (p * 16) + 8) (Int64.bits_of_float (sin phase))
        done;
        ok (Pipe.write env w ~local:buf ~len:data_bytes);
        ok (Pipe.close_writer env w);
        (match ok (Vpe_api.wait env vpe) with
        | 0 -> ()
        | c -> failwith (Printf.sprintf "fft child exited %d" c));
        Printf.printf "[chain] end-to-end: %d cycles\n"
          (Engine.now env.Env.engine - t0);

        (* Verify the spectrum from the output file. *)
        let f = ok (M3.Vfs.open_ env "/spectrum" ~flags:M3.Fs_proto.o_read) in
        let buf2 = Env.alloc_spm env ~size:data_bytes in
        let rec fill off =
          if off < data_bytes then
            match ok (M3.File.read env f ~local:(buf2 + off) ~len:(data_bytes - off)) with
            | 0 -> off
            | n -> fill (off + n)
          else off
        in
        ignore (fill 0);
        ok (M3.File.close env f);
        let re k = Int64.float_of_bits (Store.read_i64 spm ~addr:(buf2 + (k * 16))) in
        Printf.printf "[chain] spectrum peak at bin %d: %.1f (expected %d)\n"
          tone_bin (re tone_bin) points;
        if abs_float (re tone_bin -. float_of_int points) < 1e-6 then 0 else 1)
  in
  ignore (Engine.run engine);
  match M3_sim.Process.Ivar.peek exit_code with
  | Some 0 -> ()
  | Some c ->
    Printf.printf "variant FAILED with code %d\n" c;
    exit 1
  | None ->
    print_endline "variant did not terminate";
    exit 1

let () =
  print_endline "--- software FFT on a general-purpose PE ---";
  run_variant ~core:Core_type.General_purpose;
  print_endline "--- same program, FFT accelerator PE ---";
  run_variant ~core:Core_type.Fft_accelerator
