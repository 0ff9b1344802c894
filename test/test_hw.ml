(* Tests for the platform layer: PEs, core types, cost model, FFT. *)

module Engine = M3_sim.Engine
module Process = M3_sim.Process
module Platform = M3_hw.Platform
module Pe = M3_hw.Pe
module Core_type = M3_hw.Core_type
module Cost_model = M3_hw.Cost_model
module Fft = M3_hw.Fft

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_platform_shape () =
  let engine = Engine.create () in
  let platform = Platform.create engine in
  check_int "16 PEs by default" 16 (Platform.pe_count platform);
  check_int "dram on last node" 16 (Platform.dram_node platform);
  check_int "64 KiB SPM" (64 * 1024)
    (M3_mem.Store.size (Pe.spm (Platform.pe platform 0)));
  check_int "8 endpoints" 8 (M3_dtu.Dtu.ep_count (Pe.dtu (Platform.pe platform 0)));
  check_bool "DTUs boot privileged" true
    (List.for_all (fun pe -> M3_dtu.Dtu.is_privileged (Pe.dtu pe))
       (Platform.pes platform))

let test_find_pe_by_core () =
  let engine = Engine.create () in
  let config =
    {
      Platform.default_config with
      pe_count = 4;
      core_at =
        (fun i ->
          if i = 3 then Core_type.Fft_accelerator else Core_type.General_purpose);
    }
  in
  let platform = Platform.create ~config engine in
  let used = ref [ 0 ] in
  let found =
    Platform.find_pe platform ~core:Core_type.General_purpose
      ~used:(fun i -> List.mem i !used)
  in
  check_int "skips used PE0" 1 (Pe.id (Option.get found));
  let accel =
    Platform.find_pe platform ~core:Core_type.Fft_accelerator ~used:(fun _ -> false)
  in
  check_int "finds accelerator" 3 (Pe.id (Option.get accel));
  used := [ 3 ];
  check_bool "no free accelerator" true
    (Platform.find_pe platform ~core:Core_type.Fft_accelerator
       ~used:(fun i -> List.mem i !used)
    = None)

let test_pe_spawn_and_halt () =
  let engine = Engine.create () in
  let platform = Platform.create engine in
  let pe = Platform.pe platform 1 in
  let progress = ref 0 in
  let p =
    Pe.spawn pe ~name:"loop" (fun () ->
        for _ = 1 to 100 do
          Process.wait 10;
          incr progress
        done)
  in
  ignore
    (Process.spawn engine ~name:"killer" (fun () ->
         Process.wait 55;
         Pe.halt pe));
  ignore (Platform.run platform);
  check_int "halted after 5 iterations" 5 !progress;
  check_bool "process gone" true (Process.status p = Process.Finished);
  check_bool "running cleared" true (Pe.running pe = None)

(* Host bytes allocated by [f ()], in MiB. The minor heap is emptied
   first: a minor collection inside [f] would otherwise subtract what
   it promotes of the caller's earlier allocations. *)
let allocated_mib f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. before) /. 1048576.)

(* A default platform has 64 MiB of DRAM and sixteen 64 KiB SPMs, but
   a run touches a few MiB of them: memory is committed page by page
   on first write, and seed data on first access, so building and
   booting a system costs little host memory. *)
let test_platform_memory_is_sparse () =
  let engine = Engine.create () in
  let _platform, mib = allocated_mib (fun () -> Platform.create engine) in
  check_bool
    (Printf.sprintf "Platform.create allocates under 1 MiB (got %.2f)" mib)
    true (mib < 1.);
  let engine = Engine.create () in
  let (), mib =
    allocated_mib (fun () ->
        let sys = M3.Bootstrap.start engine in
        let exit =
          M3.Bootstrap.launch sys ~name:"mount" (fun env ->
              M3.Errno.ok_exn (M3.Vfs.mount_root env);
              0)
        in
        ignore (Engine.run engine);
        M3.Bootstrap.expect_exit sys exit)
  in
  check_bool
    (Printf.sprintf "boot plus one mounting client allocates under 4 MiB (got %.2f)"
       mib)
    true (mib < 4.);
  (* Seed data is produced on first access: a 1200 KiB seed file that
     its client only stats costs no copy of its bytes. *)
  let engine = Engine.create () in
  let size = 1200 * 1024 in
  let fs ~dram =
    { (M3.M3fs.default_config ~dram) with
      seed =
        [ { M3.M3fs.sd_path = "/big.dat"; sd_size = size;
            sd_blocks_per_extent = 256; sd_dir = false } ] }
  in
  let (), mib =
    allocated_mib (fun () ->
        let sys = M3.Bootstrap.start ~fs engine in
        let exit =
          M3.Bootstrap.launch sys ~name:"stat" (fun env ->
              M3.Errno.ok_exn (M3.Vfs.mount_root env);
              let st = M3.Errno.ok_exn (M3.Vfs.stat env "/big.dat") in
              if st.M3.Fs_proto.st_size = size then 0 else 1)
        in
        ignore (Engine.run engine);
        M3.Bootstrap.expect_exit sys exit)
  in
  check_bool
    (Printf.sprintf
       "boot seeding 1200 KiB plus one stat allocates under 1.5 MiB (got %.2f)" mib)
    true (mib < 1.5)

let test_cost_model_syscall_budget () =
  (* The software-side constants must sum to ≈ 170 cycles so that, with
     ≈ 30 cycles of message transfers, a null syscall lands at the
     paper's ≈ 200. *)
  let software =
    Cost_model.syscall_marshal + Cost_model.syscall_program_dtu
    + Cost_model.kernel_dispatch + Cost_model.kernel_reply_marshal
    + Cost_model.syscall_unmarshal + Cost_model.wakeup
  in
  check_bool
    (Printf.sprintf "software share 150..190 (got %d)" software)
    true
    (software >= 150 && software <= 190)

let test_cost_model_fft_factor () =
  let sw = Cost_model.fft_cycles ~accel:false ~points:2048 in
  let hw = Cost_model.fft_cycles ~accel:true ~points:2048 in
  let factor = float_of_int sw /. float_of_int hw in
  check_bool
    (Printf.sprintf "accel ~30x faster (got %.1f)" factor)
    true
    (factor > 25.0 && factor < 35.0)

let test_fft_impulse () =
  (* FFT of a unit impulse is flat ones. *)
  let n = 8 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Fft.transform re im;
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "flat" 1.0 v) re;
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "zero imag" 0.0 v) im

let test_fft_single_tone () =
  (* A pure complex exponential at bin k concentrates all energy there. *)
  let n = 64 and k = 5 in
  let re = Array.init n (fun i ->
      cos (2.0 *. Float.pi *. float_of_int (k * i) /. float_of_int n))
  and im = Array.init n (fun i ->
      sin (2.0 *. Float.pi *. float_of_int (k * i) /. float_of_int n))
  in
  Fft.transform re im;
  Alcotest.(check (float 1e-6)) "peak at bin k" (float_of_int n) re.(k);
  let energy_elsewhere =
    let sum = ref 0.0 in
    for i = 0 to n - 1 do
      if i <> k then sum := !sum +. sqrt ((re.(i) *. re.(i)) +. (im.(i) *. im.(i)))
    done;
    !sum
  in
  check_bool "no leakage" true (energy_elsewhere < 1e-6)

let test_fft_roundtrip () =
  let rng = M3_sim.Rng.create ~seed:11 in
  let n = 256 in
  let re = Array.init n (fun _ -> M3_sim.Rng.float rng -. 0.5) in
  let im = Array.init n (fun _ -> M3_sim.Rng.float rng -. 0.5) in
  let re0 = Array.copy re and im0 = Array.copy im in
  Fft.transform re im;
  Fft.inverse re im;
  for i = 0 to n - 1 do
    Alcotest.(check (float 1e-9)) "re restored" re0.(i) re.(i);
    Alcotest.(check (float 1e-9)) "im restored" im0.(i) im.(i)
  done

let test_fft_bytes_interface () =
  let n = 16 in
  let buf = Bytes.create (n * Fft.bytes_per_point) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf (i * 16)
      (Int64.bits_of_float (if i = 0 then 1.0 else 0.0));
    Bytes.set_int64_le buf ((i * 16) + 8) (Int64.bits_of_float 0.0)
  done;
  let out = Fft.transform_bytes buf in
  check_int "points" n (Fft.points_of_bytes (Bytes.length out));
  for i = 0 to n - 1 do
    Alcotest.(check (float 1e-9))
      "impulse -> ones" 1.0
      (Int64.float_of_bits (Bytes.get_int64_le out (i * 16)))
  done

let qcheck_fft_linearity =
  QCheck.Test.make ~name:"fft is linear" ~count:50
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (a, b) ->
      let a = float_of_int a /. 100.0 and b = float_of_int b /. 100.0 in
      let n = 32 in
      let rng = M3_sim.Rng.create ~seed:5 in
      let x = Array.init n (fun _ -> M3_sim.Rng.float rng) in
      let y = Array.init n (fun _ -> M3_sim.Rng.float rng) in
      let zeros () = Array.make n 0.0 in
      let fx = Array.copy x and fxi = zeros () in
      Fft.transform fx fxi;
      let fy = Array.copy y and fyi = zeros () in
      Fft.transform fy fyi;
      let mix = Array.init n (fun i -> (a *. x.(i)) +. (b *. y.(i))) in
      let fmix = Array.copy mix and fmixi = zeros () in
      Fft.transform fmix fmixi;
      let ok = ref true in
      for i = 0 to n - 1 do
        let expect = (a *. fx.(i)) +. (b *. fy.(i)) in
        if abs_float (expect -. fmix.(i)) > 1e-6 then ok := false
      done;
      !ok)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "hw.platform",
      [
        tc "default shape" test_platform_shape;
        tc "find_pe by core type" test_find_pe_by_core;
        tc "spawn and halt programs" test_pe_spawn_and_halt;
        tc "memory is committed on first write" test_platform_memory_is_sparse;
      ] );
    ( "hw.cost_model",
      [
        tc "syscall software budget" test_cost_model_syscall_budget;
        tc "fft accelerator factor" test_cost_model_fft_factor;
      ] );
    ( "hw.fft",
      [
        tc "impulse" test_fft_impulse;
        tc "single tone" test_fft_single_tone;
        tc "roundtrip" test_fft_roundtrip;
        tc "bytes interface" test_fft_bytes_interface;
        QCheck_alcotest.to_alcotest qcheck_fft_linearity;
      ] );
  ]
