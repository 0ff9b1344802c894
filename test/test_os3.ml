(* Third batch: pipe data integrity under random chunking, and the
   VFS-transparent pipe file API. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Store = M3_mem.Store
module Rng = M3_sim.Rng
module Pe = M3_hw.Pe

module Bootstrap = M3.Bootstrap
module Env = M3.Env
module Errno = M3.Errno
module Pipe = M3.Pipe
module File = M3.File
module Vpe_api = M3.Vpe_api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let ok = Errno.ok_exn

let run_app ?(no_fs = true) main =
  let engine = Engine.create () in
  let sys = Bootstrap.start ~no_fs engine in
  let exit = Bootstrap.launch sys ~name:"app3" main in
  ignore (Engine.run engine);
  Bootstrap.expect_exit sys exit

(* --- pipe data integrity -------------------------------------------------- *)

(* The writer pushes a deterministic byte pattern in random-size chunks
   through a small ring; the reader drains in different random chunks.
   Every byte must arrive exactly once, in order. *)
let pipe_integrity ~seed ~total ~ring_size =
  let passed = ref false in
  run_app (fun env ->
      let pattern i = Char.chr ((i * 31 + (i lsr 8)) land 0xff) in
      let reader = ok (Pipe.create_reader env ~ring_size) in
      let vpe =
        ok (Vpe_api.create env ~name:"w" ~core:M3_hw.Core_type.General_purpose)
      in
      ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
      ok
        (Vpe_api.run env vpe (fun cenv ->
             let rng = Rng.create ~seed in
             let w = ok (Pipe.connect_writer cenv ~ring_size) in
             let spm = Pe.spm cenv.Env.pe in
             let buf = Env.alloc_spm cenv ~size:4096 in
             let sent = ref 0 in
             while !sent < total do
               let n = min (total - !sent) (1 + Rng.int rng 4096) in
               for i = 0 to n - 1 do
                 Store.write_u8 spm ~addr:(buf + i)
                   (Char.code (pattern (!sent + i)))
               done;
               ok (Pipe.write cenv w ~local:buf ~len:n);
               sent := !sent + n
             done;
             ok (Pipe.close_writer cenv w);
             0));
      let rng = Rng.create ~seed:(seed + 1) in
      let spm = Pe.spm env.Env.pe in
      let buf = Env.alloc_spm env ~size:4096 in
      let received = ref 0 in
      let bad = ref 0 in
      let continue = ref true in
      while !continue do
        let want = 1 + Rng.int rng 4096 in
        match ok (Pipe.read env reader ~local:buf ~len:want) with
        | 0 -> continue := false
        | n ->
          for i = 0 to n - 1 do
            if Store.read_u8 spm ~addr:(buf + i) <> Char.code (pattern (!received + i))
            then incr bad
          done;
          received := !received + n
      done;
      (match ok (Vpe_api.wait env vpe) with 0 -> () | c -> failwith (string_of_int c));
      passed := !received = total && !bad = 0;
      if not !passed then
        Alcotest.failf "pipe integrity: received %d/%d, %d bad bytes" !received
          total !bad;
      0);
  !passed

let qcheck_pipe_integrity =
  QCheck.Test.make ~name:"pipe delivers exact bytes under random chunking"
    ~count:10
    QCheck.(pair (int_bound 10_000) (int_range 0 2))
    (fun (seed, ring_choice) ->
      let ring_size = [| 2048; 8192; 64 * 1024 |].(ring_choice) in
      pipe_integrity ~seed ~total:30_000 ~ring_size)

(* --- pipes through the File API --------------------------------------------- *)

let test_file_api_over_pipe () =
  run_app (fun env ->
      let reader = ok (Pipe.create_reader env ~ring_size:8192) in
      let vpe =
        ok (Vpe_api.create env ~name:"w" ~core:M3_hw.Core_type.General_purpose)
      in
      ok (Pipe.delegate_writer_end env reader ~vpe_sel:vpe.Vpe_api.vpe_sel);
      ok
        (Vpe_api.run env vpe (fun cenv ->
             let w = ok (Pipe.connect_writer cenv ~ring_size:8192) in
             (* The writer treats the pipe as a file (§4.5.8: the VFS
                makes pipes and files interchangeable). *)
             let file = File.of_pipe_writer w in
             ok (File.write_string cenv file "through the file api");
             ok (File.close cenv file);
             0));
      let file = File.of_pipe_reader reader in
      let s = ok (File.read_all env file ~max:100) in
      check_str "contents" "through the file api" s;
      (* Pipes cannot seek and wrong-direction access is rejected. *)
      check_bool "seek rejected" true
        (File.seek env file 0 = Error Errno.E_inv_args);
      let buf = Env.alloc_spm env ~size:16 in
      check_bool "write to reader end rejected" true
        (File.write env file ~local:buf ~len:8 = Error Errno.E_no_perm);
      check_int "child" 0 (ok (Vpe_api.wait env vpe));
      0)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "os3.pipe_integrity",
      [ QCheck_alcotest.to_alcotest qcheck_pipe_integrity ] );
    ( "os3.pipe_as_file",
      [ tc "File API over a pipe" test_file_api_over_pipe ] );
  ]
